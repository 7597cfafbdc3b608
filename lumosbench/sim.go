package main

// The sim-sync and sim-gossip workloads: the discrete-event device-network
// simulator driving one training session round by round over a zipf fleet
// with churn and partial participation, one device per shard (as lumos-sim
// builds it). sim-sync runs the star scheduler through the shared
// aggregator queue; sim-gossip runs decentralized gossip over a ring.

import (
	"fmt"
	"math"
	"time"

	"lumos/internal/core"
	"lumos/internal/fed"
	"lumos/internal/obs"
	"lumos/internal/sim"
	"lumos/internal/topo"
)

const (
	simMCMC          = 150
	simChurn         = 0.2
	simParticipation = 0.8
	// simSyncAggCapacity is the aggregator's shared link capacity, bytes/s.
	simSyncAggCapacity = 1e9
)

// simSpec is one simulator workload.
type simSpec struct {
	scale float64
	sched core.Sched
	// roundsPerSecond sizes the run: --seconds × this many rounds, from
	// about half of --seconds to all of it on a 2-CPU Xeon VM, whose speed
	// moves with the load on its host.
	roundsPerSecond float64
}

var (
	simSyncSpec   = simSpec{scale: 0.05, sched: core.SchedSync, roundsPerSecond: 8}
	simGossipSpec = simSpec{scale: 0.02, sched: core.SchedGossip, roundsPerSecond: 4}
)

func runSimSync(b *bench) error   { return runSim(b, simSyncSpec) }
func runSimGossip(b *bench) error { return runSim(b, simGossipSpec) }

type simSetup struct {
	sys *core.System
	sim *sim.Simulator
	obj core.Objective
	reg *obs.Registry
	// done holds when each round was committed, on the host clock; run is
	// the traced run's span around Simulator.Run.
	done []time.Time
	run  *span
}

func runSim(b *bench, spec simSpec) error {
	rounds := int(math.Round(spec.roundsPerSecond * b.seconds))
	st, err := repeatSetup(b, func(parent *span) (*simSetup, error) {
		return setupSim(b, spec, rounds, parent)
	}, func(st *simSetup) string {
		return fmt.Sprintf("max workload %d, model %d bytes", st.sys.Balanced.MaxWorkload(), st.sys.ModelBytes())
	}, nil)
	if err != nil {
		return err
	}

	st.run = b.sp.begin("sim.Simulator.Run", nil)
	c0, t0 := cpuTime(), time.Now()
	res, err := st.sim.Run(st.obj)
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	st.run.end()
	if err != nil {
		return err
	}
	if err := b.stopProfiling(); err != nil {
		return err
	}

	b.attempted = int64(len(res.Timeline))
	var sumBytes int64
	var virt []float64
	for _, rs := range res.Timeline {
		sumBytes += rs.Bytes
		virt = append(virt, rs.Commit-rs.Start)
		if !rs.Skipped && !finite(rs.Loss) {
			b.failed++
			b.check(false, "round %d: non-finite loss %v", rs.Round, rs.Loss)
		}
	}
	b.check(len(res.Timeline) == rounds, "timeline has %d rounds, want %d", len(res.Timeline), rounds)
	b.check(res.TotalBytes == sumBytes, "TotalBytes %d is not the sum of round bytes %d", res.TotalBytes, sumBytes)
	b.check(finite(res.FinalMetric) && res.FinalMetric > 0, "final metric %v", res.FinalMetric)

	b.check(len(st.done) == len(res.Timeline), "round observer saw %d rounds, timeline has %d", len(st.done), len(res.Timeline))
	rates := segmentRates(t0, st.done, rateSegments)
	b.detail["segment_rounds_per_s"] = rates
	var host []float64
	prev := t0
	for _, d := range st.done {
		host = append(host, ms(d.Sub(prev)))
		prev = d
	}
	b.operations(median(rates), quantile(host, 0.5))
	b.endToEnd("final_metric", res.FinalMetric)
	b.endToEnd("model_time_s", res.WallClock)
	b.endToEnd("comm_mb", float64(res.TotalBytes)/1e6)

	b.perLayer("sim.cpu_util", cpuUtil(cpu, wall))
	b.perLayer("sim.participants_mean", res.MeanParticipants)
	b.perLayer("sim.round_virtual_s.p50", quantile(virt, 0.5))
	b.perLayer("sim.stale_applied", float64(res.StaleApplied))
	b.perLayer("sim.dropped", float64(res.Dropped))
	if b.traced {
		b.perLayer("sim.round_host_ms.p50", quantile(host, 0.5))
		b.perLayer("sim.round_host_ms.p90", quantile(host, 0.9))
		b.perLayer("fleet.agg_wait_s.mean", histMean(st.reg, "lumos_sim_agg_wait_seconds"))
		if spec.sched == core.SchedGossip {
			b.perLayer("fleet.link_wait_s.mean", histMean(st.reg, "lumos_sim_gossip_link_wait_seconds"))
		}
	}
	return balanceLayer(b, st.sys)
}

// setupSim builds the dataset, the system (one shard per device) and the
// simulator. The traced run adds a metrics registry and a round observer
// timing the host time between rounds.
func setupSim(b *bench, spec simSpec, rounds int, parent *span) (*simSetup, error) {
	g, split, err := loadGraph(b, spec.scale, parent)
	if err != nil {
		return nil, err
	}
	st := &simSetup{}
	if b.traced {
		st.reg = obs.New()
	}
	sys, err := newSystem(b, g, core.Config{
		Task: core.Supervised, MCMCIterations: simMCMC, Shards: g.N,
		Sched: spec.sched, Seed: b.seed,
	}, parent)
	if err != nil {
		return nil, err
	}
	sc := sim.Scenario{
		Fleet: sim.FleetZipf, Churn: simChurn, Participation: simParticipation,
		Rounds: rounds, Seed: b.seed, Metrics: st.reg,
	}
	if spec.sched == core.SchedGossip {
		if sc.Topology, err = topo.Ring(g.N, 2); err != nil {
			return nil, err
		}
	} else {
		sc.Cost = fed.DefaultCostModel()
		sc.Cost.AggBytesPerSecond = simSyncAggCapacity
	}
	// The observer only stamps the host clock (and, traced, records the
	// round's span); the simulator calls it once per committed round.
	sc.RoundObserver = func(sim.RoundStats) {
		now := time.Now()
		if b.sp != nil {
			prev := st.run.start
			if len(st.done) > 0 {
				prev = b.sp.tr.Now() - now.Sub(st.done[len(st.done)-1]).Seconds()
			}
			b.sp.record(0, "sim.round", st.run.id, prev, b.sp.tr.Now())
		}
		st.done = append(st.done, now)
	}
	sp := b.sp.begin("sim.New", parent)
	st.sim, err = sim.New(sys, sc)
	sp.end()
	if err != nil {
		return nil, err
	}
	st.sys, st.obj = sys, core.NewSupervisedObjective(split)
	return st, nil
}

// histMean is a registry histogram's mean observation (0 when empty).
func histMean(reg *obs.Registry, name string) float64 {
	h := reg.Histogram(name, "", obs.DurationBuckets).Snapshot()
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}
