package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// The scalar matmul loops the blocked kernels replaced. They are the test
// oracle: the kernel-equivalence tests require the production kernels to
// match them bit for bit, and the benchmarks below measure the speedup over
// them.

// matMulRows accumulates rows [lo, hi) of out += a·b: an ikj loop order for
// cache-friendly access to b and out rows, with a per-element sparsity skip
// on a. Callers zero out first.
func matMulRows(a, b, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matMulNTRows accumulates rows [lo, hi) of dst += a·bᵀ: one dot product at
// a time, j ascending.
func matMulNTRows(a, b, dst *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < b.rows; k++ {
			brow := b.Row(k)
			s := 0.0
			for j, av := range arow {
				s += av * brow[j]
			}
			drow[k] += s
		}
	}
}

// matMulTNRows accumulates dst rows [lo, hi) of dst += aᵀ·b: rank-1 updates
// with a per-element sparsity branch, i ascending for every entry.
func matMulTNRows(a, b, dst *Matrix, lo, hi int) {
	for i := 0; i < a.rows; i++ {
		arow, brow := a.Row(i), b.Row(i)
		for k := lo; k < hi; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			drow := dst.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// refFanOut runs a scalar row kernel over [0, rows) with the production
// entry points' parallel fan-out, so oracle timings compare like for like.
func refFanOut(rows, workers int, kernel func(lo, hi int)) {
	if workers <= 1 {
		kernel(0, rows)
		return
	}
	parallelRowBlocks(rows, workers, kernel)
}

// BenchmarkMatMulInto/…/reference times the scalar oracle at the square
// sizes the root package's BenchmarkMatMulInto/…/blocked uses (same seed and
// inputs), so the two halves of the comparison keep their recorded names.
func BenchmarkMatMulInto(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		rng := rand.New(rand.NewSource(7))
		x := Uniform(n, n, -1, 1, rng)
		w := Uniform(n, n, -1, 1, rng)
		out := New(n, n)
		b.Run(fmt.Sprintf("%dx%d/reference", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out.Zero()
				refFanOut(n, matMulWorkers(n, n, n), func(lo, hi int) { matMulRows(x, w, out, lo, hi) })
			}
			flops := 2 * float64(n) * float64(n) * float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkMatMulTNAddInto/reference is the scalar twin of the root
// package's BenchmarkMatMulTNAddInto/blocked.
func BenchmarkMatMulTNAddInto(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	a := Uniform(4096, 128, -1, 1, rng)
	g := Uniform(4096, 16, -1, 1, rng)
	dst := New(128, 16)
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refFanOut(dst.rows, matMulWorkers(128, 4096, 16), func(lo, hi int) { matMulTNRows(a, g, dst, lo, hi) })
		}
	})
}
