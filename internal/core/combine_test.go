package core

import (
	"math"
	"math/rand"
	"testing"

	"lumos/internal/autodiff"
	"lumos/internal/graph"
	"lumos/internal/tensor"
)

// denseOracle is the shard combine the engine used before partials were
// compact, kept as a test oracle: every shard pools into an N-row partial
// (exact +0 rows for the vertices its leaves miss), the partials are summed
// with autodiff.AddN in shard order through per-shard cut leaves, and each
// cut replays its full N-row gradient into the shard subgraph. Phase 4 (the
// gradient reduction and optimizer step) is the engine's own.
type denseOracle struct {
	e     *engine
	pools []*tensor.CSR // N-segment leaf→vertex pooling per shard
	cache []*tensor.Matrix
	age   []int
}

func newDenseOracle(e *engine) *denseOracle {
	o := &denseOracle{e: e}
	for _, sh := range e.shards {
		o.pools = append(o.pools, tensor.NewCSR(e.sys.G.N, sh.leafLocal, sh.leafVertex))
	}
	return o
}

// round mirrors engine.stepRound with the dense combine. It returns the
// pooled value (its Grad set by the loss backward), every shard's partial
// (nil when inactive; its Grad is the replayed seed), the loss and the
// round report.
func (o *denseOracle) round(active []bool, delays []int, ttl int, lossFn func(*autodiff.Value) *autodiff.Value) (*autodiff.Value, []*autodiff.Value, float64, roundReport) {
	e := o.e
	e.zeroGrads()
	if active != nil && o.cache == nil {
		o.cache = make([]*tensor.Matrix, len(e.shards))
		o.age = make([]int, len(e.shards))
	}
	parts := make([]*autodiff.Value, len(e.shards))
	e.parallel(func(i int) {
		if active != nil && !active[i] {
			return
		}
		sh := e.shards[i]
		h := e.encs[i].Forward(sh.conv, e.shardTape(i).Const(sh.x), true, e.rngs[i])
		parts[i] = autodiff.CSRAggregate(h, o.pools[i], sh.poolCoef)
	})
	var rep roundReport
	st := e.serialTape()
	cuts := make([]*autodiff.Value, len(parts))
	var terms []*autodiff.Value
	for i, p := range parts {
		switch {
		case p != nil:
			rep.activeShards++
			cuts[i] = st.Var(p.Data)
			terms = append(terms, cuts[i])
			if o.cache != nil {
				o.cache[i] = p.Data.Clone()
				o.age[i] = 0
			}
		case o.cache[i] != nil && o.age[i] < ttl:
			o.age[i]++
			terms = append(terms, st.Const(o.cache[i]))
		case o.cache[i] != nil:
			o.cache[i] = nil
			rep.expiredParts++
		}
	}
	pooled := autodiff.Const(tensor.New(e.sys.G.N, e.sys.Encoder.EmbeddingDim()))
	if len(terms) > 0 {
		pooled = autodiff.AddN(terms...)
	}
	loss := lossFn(pooled)
	loss.Backward()
	e.parallel(func(i int) {
		if cuts[i] != nil && cuts[i].Grad != nil {
			parts[i].BackwardWithGradient(cuts[i].Grad)
		}
	})
	rep.staleApplied = e.finishRound(parts, delays)
	return pooled, parts, loss.Scalar(), rep
}

// forward is the dense eval-mode combine engine.forward replaced.
func (o *denseOracle) forward() *tensor.Matrix {
	e := o.e
	parts := make([]*autodiff.Value, len(e.shards))
	e.parallel(func(i int) {
		sh := e.shards[i]
		h := e.encs[i].Forward(sh.conv, e.shardTape(i).Const(sh.x), false, e.rngs[i])
		parts[i] = autodiff.CSRAggregate(h, o.pools[i], sh.poolCoef)
	})
	return autodiff.AddN(parts...).Data
}

// requireSameBits fails unless a and b hold bit-identical entries.
func requireSameBits(t *testing.T, what string, a, b *tensor.Matrix) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("%s: %dx%d vs %dx%d", what, a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	for r := 0; r < a.Rows(); r++ {
		for c := 0; c < a.Cols(); c++ {
			if x, y := a.At(r, c), b.At(r, c); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%s: entry (%d,%d) is %v (%#x), oracle %v (%#x)",
					what, r, c, x, math.Float64bits(x), y, math.Float64bits(y))
			}
		}
	}
}

// TestSparseCombineMatchesDenseOracle: the compact-partial combine
// (scatter-add into one pooled matrix, gather the seeds back by row) is
// bit-identical to the dense AddN combine it replaced — the pooled
// embeddings, every active shard's replayed seed gradient, the loss, the
// round report and the post-step weights, round after round, and the
// eval-mode embeddings at the end. Two systems built from the same seed
// run the same plans, one through Session.StepRound, one through the
// oracle.
func TestSparseCombineMatchesDenseOracle(t *testing.T) {
	g := engineGraph(t, 41)
	n := g.N
	mask := func(seed int64, p float64) []bool {
		rng := rand.New(rand.NewSource(seed))
		m := make([]bool, n)
		for i := range m {
			m[i] = rng.Float64() < p
		}
		return m
	}
	delays := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		d := make([]int, n)
		for i := range d {
			d[i] = rng.Intn(3)
		}
		return d
	}
	firstHalf := make([]bool, n)
	for i := 0; i < n/2; i++ {
		firstHalf[i] = true
	}
	cases := []struct {
		name   string
		shards int
		plans  []RoundPlan
		// wantCached and wantExpired require that some round served a
		// cached partial, or lost one to expiry.
		wantCached, wantExpired bool
	}{
		{name: "full participation, shards < N", shards: 7,
			plans: []RoundPlan{{}, {}, {}}},
		{name: "partial participation with cached partials", shards: 12,
			plans: []RoundPlan{
				{Active: mask(1, 1), TTL: 2},
				{Active: firstHalf, TTL: 2},
				{Active: mask(2, 0.7), Delays: delays(3), TTL: 2},
				{Active: firstHalf, TTL: 2},
			},
			wantCached: true},
		{name: "cache expiry", shards: 12,
			plans: []RoundPlan{
				{Active: mask(4, 1), TTL: 1},
				{Active: firstHalf, TTL: 1},
				{Active: firstHalf, TTL: 1},
				{Active: mask(5, 0.6), TTL: 1},
			},
			wantCached: true, wantExpired: true},
		{name: "shards = N", shards: n,
			plans: []RoundPlan{
				{Active: mask(6, 1), TTL: 1},
				{Active: mask(7, 0.6), Delays: delays(8), TTL: 1},
				{Active: mask(9, 0.6), TTL: 1},
				{Active: mask(10, 0.6), Delays: delays(11), TTL: 1},
				{Active: mask(12, 0.3), TTL: 1},
			},
			wantCached: true, wantExpired: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(41)))
			if err != nil {
				t.Fatal(err)
			}
			build := func() (*System, *Session) {
				sys, err := NewSystem(g, g, Config{
					Task: Supervised, MCMCIterations: 10, Shards: tc.shards, Workers: 2, Seed: 41,
				})
				if err != nil {
					t.Fatal(err)
				}
				sess, err := sys.NewSession(NewSupervisedObjective(split))
				if err != nil {
					t.Fatal(err)
				}
				return sys, sess
			}
			sys, sess := build()
			ref, refSess := build()
			oracle := newDenseOracle(ref.eng)
			if tc.shards < n && !touchedRowsOverlap(sys.eng.shards) {
				t.Fatal("no vertex is touched by two shards; the case does not exercise overlapping rows")
			}

			var pooled *autodiff.Value
			lossFn := sess.lossFn
			sess.lossFn = func(p *autodiff.Value) *autodiff.Value {
				pooled = p
				return lossFn(p)
			}
			var cached, expired bool
			for r, plan := range tc.plans {
				out, err := sess.StepRound(plan)
				if err != nil {
					t.Fatal(err)
				}
				if out.Skipped {
					t.Fatalf("round %d skipped", r)
				}
				if !refSess.obj.begin(plan.Active) {
					t.Fatalf("round %d: oracle objective has no signal", r)
				}
				refSess.obj.account(plan.Active)
				active, delay := ref.eng.mapDevices(plan.Active, plan.Delays)
				refPooled, refParts, loss, rep := oracle.round(active, delay, plan.TTL, refSess.lossFn)

				if math.Float64bits(out.Loss) != math.Float64bits(loss) {
					t.Fatalf("round %d: loss %v, oracle %v", r, out.Loss, loss)
				}
				if out.ActiveShards != rep.activeShards || out.StaleApplied != rep.staleApplied || out.ExpiredParts != rep.expiredParts {
					t.Fatalf("round %d: outcome %+v, oracle %+v", r, out, rep)
				}
				for i, q := range refParts {
					cached = cached || q == nil && oracle.cache != nil && oracle.cache[i] != nil
				}
				expired = expired || rep.expiredParts > 0
				requireSameBits(t, "pooled embeddings", pooled.Data, refPooled.Data)
				requireSameBits(t, "pooled gradient", pooled.Grad, refPooled.Grad)
				for i, sh := range sys.eng.shards {
					p, q := sys.eng.parts[i], refParts[i]
					if (p == nil) != (q == nil) {
						t.Fatalf("round %d shard %d: active %v, oracle %v", r, i, p != nil, q != nil)
					}
					if p == nil {
						continue
					}
					if p.Rows() != len(sh.touched) {
						t.Fatalf("round %d shard %d: partial has %d rows, shard touches %d", r, i, p.Rows(), len(sh.touched))
					}
					requireSameBits(t, "shard seed gradient", p.Grad, tensor.Gather(q.Grad, sh.touched))
				}
				for j, prm := range sys.Params() {
					requireSameBits(t, "post-step "+prm.Name, prm.V.Data, ref.Params()[j].V.Data)
				}
			}
			if tc.wantCached && !cached {
				t.Error("no round served a cached partial")
			}
			if tc.wantExpired && !expired {
				t.Error("no cached partial expired")
			}
			requireSameBits(t, "eval embeddings", sys.Embeddings(), oracle.forward())
		})
	}
}

// touchedRowsOverlap reports whether some vertex is pooled into by more
// than one shard.
func touchedRowsOverlap(shards []*shard) bool {
	seen := map[int]bool{}
	for _, sh := range shards {
		for _, v := range sh.touched {
			if seen[v] {
				return true
			}
			seen[v] = true
		}
	}
	return false
}
