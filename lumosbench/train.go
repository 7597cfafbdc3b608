package main

// The train workload: the paper's Facebook setting. Secure (SMC) MCMC tree
// construction with T=1000, then full-participation GCN epochs driven
// through core.Session.Step on 32 shards.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"lumos/internal/core"
	"lumos/internal/graph"
)

const (
	trainScale  = 0.05 // facebook-like, N=1124
	trainMCMC   = 1000
	trainShards = 32
	// trainEpochsPerSecond sizes the run: --seconds × this many epochs,
	// from about half of --seconds to all of it on a 2-CPU Xeon VM, whose
	// speed moves with the load on its host.
	trainEpochsPerSecond = 15
	// trainTarget is the validation accuracy time_to_target_s waits for,
	// checked with Session.ValidationMetric every trainCheckEvery epochs.
	trainTarget     = 0.82
	trainCheckEvery = 5
)

type trainSetup struct {
	g     *graph.Graph
	split *graph.NodeSplit
	sys   *core.System
}

func runTrain(b *bench) error {
	epochs := int(math.Round(trainEpochsPerSecond * b.seconds))
	st, err := repeatSetup(b, func(parent *span) (*trainSetup, error) {
		g, split, err := loadGraph(b, trainScale, parent)
		if err != nil {
			return nil, err
		}
		sys, err := newSystem(b, g, core.Config{
			Task: core.Supervised, Epochs: epochs, MCMCIterations: trainMCMC,
			SecureCompare: true, Shards: trainShards, Seed: b.seed,
		}, parent)
		if err != nil {
			return nil, err
		}
		return &trainSetup{g: g, split: split, sys: sys}, nil
	}, func(st *trainSetup) string {
		bal := st.sys.Balanced
		return fmt.Sprintf("max workload %d, %d accepted, %d setup bytes",
			bal.MaxWorkload(), bal.Accepted, st.sys.Net.Snapshot().TotalBytes())
	}, nil)
	if err != nil {
		return err
	}
	sys := st.sys
	sess, err := sys.NewSession(core.NewSupervisedObjective(st.split))
	if err != nil {
		return err
	}

	root := b.sp.begin("train", nil)
	var stepMs, evalMs []float64
	var done []time.Time
	var stepWall, stepCPU time.Duration
	var allocs, allocBytes uint64
	var m0, m1 runtime.MemStats
	toTarget := time.Duration(-1)
	start := time.Now()
	for e := 1; e <= epochs; e++ {
		if b.traced {
			runtime.ReadMemStats(&m0)
		}
		sp := b.sp.begin("core.Session.Step", root)
		c0, t0 := cpuTime(), time.Now()
		loss, err := sess.Step()
		d := time.Since(t0)
		stepCPU += cpuTime() - c0
		sp.end()
		if b.traced {
			runtime.ReadMemStats(&m1)
			allocs += m1.Mallocs - m0.Mallocs
			allocBytes += m1.TotalAlloc - m0.TotalAlloc
		}
		b.attempted++
		if err != nil {
			b.failed++
			b.check(false, "epoch %d: %v", e, err)
			continue
		}
		if !finite(loss) {
			b.failed++
			b.check(false, "epoch %d: non-finite loss %v", e, loss)
		}
		stepWall += d
		stepMs = append(stepMs, ms(d))
		if e%trainCheckEvery == 0 {
			sp := b.sp.begin("core.Session.ValidationMetric", root)
			t0 := time.Now()
			m, ok, err := sess.ValidationMetric()
			evalMs = append(evalMs, ms(time.Since(t0)))
			sp.end()
			if err != nil || !ok {
				return fmt.Errorf("validation metric after epoch %d: ok=%v err=%v", e, ok, err)
			}
			if toTarget < 0 && m >= trainTarget {
				toTarget = time.Since(start)
			}
		}
		done = append(done, time.Now())
	}
	root.end()

	sess.FinishRounds()
	stats := sess.Stats()
	acc, err := sess.TestMetric()
	if err != nil {
		return err
	}
	b.check(finite(acc) && acc > 0, "test accuracy %v", acc)
	rates := segmentRates(start, done, rateSegments)
	b.detail["segment_epochs_per_s"] = rates
	b.operations(median(rates), quantile(stepMs, 0.5))
	if toTarget >= 0 {
		b.endToEnd("time_to_target_s", toTarget.Seconds())
	} else {
		logf("validation accuracy never reached %v in %d epochs", trainTarget, epochs)
	}
	b.endToEnd("final_metric", acc)
	b.endToEnd("model_time_s", stats.SimEpochTime.Seconds()*float64(epochs))
	b.endToEnd("comm_mb", float64(sys.Net.Snapshot().TotalBytes())/1e6)

	b.perLayer("core.step_ms.p50", quantile(stepMs, 0.5))
	b.perLayer("core.step_ms.p90", quantile(stepMs, 0.9))
	b.perLayer("core.step_cpu_util", cpuUtil(stepCPU, stepWall))
	b.perLayer("core.eval_ms", median(evalMs))
	if b.traced {
		b.perLayer("core.step_allocs", float64(allocs)/float64(epochs))
		b.perLayer("core.step_alloc_kb", float64(allocBytes)/float64(epochs)/1024)
		for i := 0; i < 5; i++ {
			sp := b.sp.begin("core.System.Embeddings", nil)
			t0 := time.Now()
			sys.Embeddings()
			b.sample("core.forward_ms", ms(time.Since(t0)))
			sp.end()
		}
	}
	if err := b.stopProfiling(); err != nil {
		return err
	}
	return balanceLayer(b, sys)
}
