package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"lumos/internal/balance"
	"lumos/internal/core"
	"lumos/internal/fed"
	"lumos/internal/graph"
)

// repeatSetup runs setup setupRepeats times, reports setup_s as the median
// wall time, and returns the last setup's products; release, when set,
// frees each earlier one. Every setup is built from the same seed, so their
// fingerprints must agree. Each earlier setup is dropped and its garbage
// collected before the next starts, so the peak resident set is that of
// one setup, whenever the collector would otherwise have run. The traced
// run profiles the last setup and what follows it.
func repeatSetup[T any](b *bench, setup func(parent *span) (T, error), fingerprint func(T) string, release func(T)) (T, error) {
	var last, zero T
	var times []float64
	prev := ""
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && release != nil {
			release(last)
		}
		last = zero
		runtime.GC()
		if i == setupRepeats-1 {
			if err := b.startProfiling(); err != nil {
				return zero, err
			}
		}
		sp := b.sp.begin("setup", nil)
		t0 := time.Now()
		v, err := setup(sp)
		times = append(times, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return zero, err
		}
		fp := fingerprint(v)
		b.check(i == 0 || fp == prev, "setup %d differs from setup %d: %s vs %s", i+1, i, fp, prev)
		prev, last = fp, v
	}
	b.endToEnd("setup_s", median(times))
	b.detail["setup_s"] = times
	return last, nil
}

// loadGraph generates the facebook-like dataset and its 50/25/25 node
// split, timing both as the graph layer.
func loadGraph(b *bench, scale float64, parent *span) (*graph.Graph, *graph.NodeSplit, error) {
	sp := b.sp.begin("graph.FacebookLike+SplitNodes", parent)
	defer sp.end()
	t0 := time.Now()
	g, err := graph.FacebookLike(scale, b.seed)
	if err != nil {
		return nil, nil, err
	}
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(b.seed)))
	if err != nil {
		return nil, nil, err
	}
	b.sample("graph.load_s", time.Since(t0).Seconds())
	return g, split, nil
}

// newSystem times core.NewSystem as the core layer's setup.
func newSystem(b *bench, g *graph.Graph, cfg core.Config, parent *span) (*core.System, error) {
	sp := b.sp.begin("core.NewSystem", parent)
	defer sp.end()
	t0 := time.Now()
	sys, err := core.NewSystem(g, g, cfg)
	if err != nil {
		return nil, err
	}
	b.sample("core.new_system_s", time.Since(t0).Seconds())
	return sys, nil
}

// balanceLayer reports the tree constructor's counts from the system's
// balancing result. The traced run also times a separate balance.Balance
// call with the workload's seed and configuration, and checks that it
// reproduces the system's result.
func balanceLayer(b *bench, sys *core.System) error {
	bal := sys.Balanced
	b.perLayer("balance.comparisons", float64(bal.SMC.Comparisons))
	b.perLayer("balance.ots", float64(bal.SMC.OTs))
	b.perLayer("balance.smc_mb", float64(bal.SMC.Bytes)/1e6)
	b.perLayer("balance.max_workload", float64(bal.MaxWorkload()))
	if it := sys.Cfg.MCMCIterations; it > 0 {
		b.perLayer("balance.accept_ratio", float64(bal.Accepted)/float64(it))
	}
	if !b.traced {
		return nil
	}
	sp := b.sp.begin("balance.Balance", nil)
	t0 := time.Now()
	res, err := balance.Balance(sys.G, fed.NewDevices(sys.G, b.seed), fed.NewServer(b.seed), balance.Config{
		Iterations: sys.Cfg.MCMCIterations, Secure: sys.Cfg.SecureCompare, Seed: b.seed,
	})
	b.perLayer("balance.s", time.Since(t0).Seconds())
	sp.end()
	if err != nil {
		return fmt.Errorf("balance: %w", err)
	}
	b.check(res.MaxWorkload() == bal.MaxWorkload() && res.Accepted == bal.Accepted && res.SMC == bal.SMC,
		"separate balance.Balance run differs from the system's (max workload %d vs %d, accepted %d vs %d)",
		res.MaxWorkload(), bal.MaxWorkload(), res.Accepted, bal.Accepted)
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
