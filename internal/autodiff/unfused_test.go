package autodiff

import (
	"fmt"
	"math/rand"
	"testing"

	"lumos/internal/graph"
	"lumos/internal/tensor"
)

// The unfused neighborhood-aggregation chain Gather→ScaleRows/MulRowsByCol→
// SegmentSum that CSRAggregate/CSRAggregateMul replaced in production. It
// is the test oracle: the CSR equivalence tests require the fused ops to
// match it bit for bit in both passes, and BenchmarkCSRAggregate/unfused
// measures the fusion's speedup over it.

// SegmentSum returns the nseg×c matrix whose row s is the sum of the rows i
// of a with seg[i] == s.
func SegmentSum(a *Value, seg []int, nseg int) *Value {
	if len(seg) != a.Data.Rows() {
		panic(fmt.Sprintf("autodiff: SegmentSum %d segments for %d rows", len(seg), a.Data.Rows()))
	}
	t := tapeFor(a)
	data := newZeroMatrix(t, nseg, a.Data.Cols())
	tensor.ScatterAddRows(data, a.Data, seg)
	out := newNode(t, data, backSegmentSum, a)
	out.ints = seg
	return out
}

func backSegmentSum(v *Value) {
	g := v.parents[0].EnsureGrad()
	for i, s := range v.ints {
		grow, orow := g.Row(i), v.Grad.Row(s)
		for j := range grow {
			grow[j] += orow[j]
		}
	}
}

// ScaleRows multiplies row i of a by the constant coef[i].
func ScaleRows(a *Value, coef []float64) *Value {
	if len(coef) != a.Data.Rows() {
		panic(fmt.Sprintf("autodiff: ScaleRows %d coefs for %d rows", len(coef), a.Data.Rows()))
	}
	t := tapeFor(a)
	data := newMatrix(t, a.Data.Rows(), a.Data.Cols())
	for i := 0; i < a.Data.Rows(); i++ {
		row, orow := a.Data.Row(i), data.Row(i)
		for j := range row {
			orow[j] = coef[i] * row[j]
		}
	}
	out := newNode(t, data, backScaleRows, a)
	out.fs = coef
	return out
}

func backScaleRows(v *Value) {
	g := v.parents[0].EnsureGrad()
	for i := 0; i < g.Rows(); i++ {
		grow, orow := g.Row(i), v.Grad.Row(i)
		ci := v.fs[i]
		for j := range grow {
			grow[j] += ci * orow[j]
		}
	}
}

// MulRowsByCol multiplies row i of a (n×c) by s.At(i,0), where s is an n×1
// differentiable column; used for attention-weighted messages.
func MulRowsByCol(a, s *Value) *Value {
	n, c := a.Data.Dims()
	if s.Data.Rows() != n || s.Data.Cols() != 1 {
		panic(fmt.Sprintf("autodiff: MulRowsByCol a %dx%d s %dx%d", n, c, s.Data.Rows(), s.Data.Cols()))
	}
	t := tapeFor(a, s)
	data := newMatrix(t, n, c)
	for i := 0; i < n; i++ {
		si := s.Data.At(i, 0)
		row, orow := a.Data.Row(i), data.Row(i)
		for j := range row {
			orow[j] = si * row[j]
		}
	}
	return newNode(t, data, backMulRowsByCol, a, s)
}

func backMulRowsByCol(v *Value) {
	a, s := v.parents[0], v.parents[1]
	n := a.Data.Rows()
	if a.requiresGrad {
		g := a.EnsureGrad()
		for i := 0; i < n; i++ {
			si := s.Data.At(i, 0)
			grow, orow := g.Row(i), v.Grad.Row(i)
			for j := range grow {
				grow[j] += si * orow[j]
			}
		}
	}
	if s.requiresGrad {
		g := s.EnsureGrad()
		for i := 0; i < n; i++ {
			arow, orow := a.Data.Row(i), v.Grad.Row(i)
			d := 0.0
			for j := range arow {
				d += arow[j] * orow[j]
			}
			g.Set(i, 0, g.At(i, 0)+d)
		}
	}
}

// BenchmarkCSRAggregate/unfused times the oracle chain (one op: forward +
// backward) on the power-law graph the root package's
// BenchmarkCSRAggregate/fused uses (same seed and inputs).
func BenchmarkCSRAggregate(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g, err := graph.FacebookLike(0.03, 1)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]int, 0, 2*len(g.Edges))
	dst := make([]int, 0, 2*len(g.Edges))
	for _, e := range g.Edges {
		src = append(src, e[0], e[1])
		dst = append(dst, e[1], e[0])
	}
	coef := make([]float64, len(src))
	for i := range coef {
		coef[i] = rng.Float64()
	}
	h := tensor.Uniform(g.N, 64, -1, 1, rng)
	seed := tensor.Uniform(g.N, 64, -1, 1, rng)

	b.Run("unfused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := Var(h.Clone())
			out := SegmentSum(ScaleRows(Gather(x, src), coef), dst, g.N)
			out.BackwardWithGradient(seed)
		}
	})
}
