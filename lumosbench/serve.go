package main

// The serve workload: the train → publish → serve loop on the request path.
// Setup trains a model, captures and publishes snapshot v1, reads it back
// into a serving bundle, trains further and publishes v2 the same way, and
// starts an in-process replica on loopback serving v1. The measured part
// offers open-loop traffic: a nominal phase with a hot swap to v2 halfway,
// then a ladder of rising rates.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lumos/internal/core"
	"lumos/internal/graph"
	"lumos/internal/obs"
	"lumos/internal/serve"
	"lumos/internal/snapshot"
)

const (
	serveScale  = 0.02 // facebook-like, N=449
	serveMCMC   = 30
	serveEpochs = 8 // per published version
	// nominalQPS is the nominal phase's offered rate; the phase lasts
	// nominalShare × --seconds and swaps to v2 at its midpoint.
	nominalQPS   = 400
	nominalShare = 0.5
	// The ladder climbs from the nominal rate in eighth-octave steps,
	// nominalQPS × ladderRatio^k QPS for k = 0..ladderRungs-1 (400 to ~16k
	// QPS), and stops after the first rung that misses the limit. A rung
	// lasts --seconds/10, or long enough for rungSamples requests (enough
	// for a p99) if longer. The rate the replica sustains moves by up to a
	// fifth between runs with the host's timer latency; fine steps keep the
	// reported rate tracking it instead of jumping between coarse rungs.
	ladderRatio = 1.0905077326652577 // 2^(1/8)
	ladderRungs = 43
	rungSamples = 1000
	// limitMs is the latency limit on p99, from each request's due time.
	limitMs = 50
	// stageCalls is how many calls each stage of the traced run's stage
	// split times.
	stageCalls = 300
)

// serveSetup is a trained, published and listening replica.
type serveSetup struct {
	g       *graph.Graph
	bundles map[uint64]*serve.Bundle // v1 and v2, read-only after setup
	v2      *serve.Bundle
	snapLen int64
	sys     *core.System // the trainer, for the balance layer's counts
	reg     *obs.Registry
	srv     *serve.Server
	hs      *http.Server
	base    string
	served  chan error
	// modelTime is the cost model's training time over both versions'
	// epochs; acc is v2's test accuracy.
	modelTime, acc float64
}

// close stops the HTTP server and the replica and waits for both.
func (st *serveSetup) close() {
	st.hs.Close()
	<-st.served
	st.srv.Close()
}

func runServe(b *bench) error {
	st, err := repeatSetup(b, func(parent *span) (*serveSetup, error) {
		return setupServe(b, parent)
	}, func(st *serveSetup) string {
		return fmt.Sprintf("v2 snapshot %d bytes, v2 metric %v", st.snapLen, st.v2.Meta.Metric)
	}, (*serveSetup).close)
	if err != nil {
		return err
	}
	defer st.close()

	conns := min(2, runtime.NumCPU())
	// Every phase replays a prefix of one query stream; size it for the
	// longest rung length at the highest rate.
	maxLen := max(b.seconds/10, rungSamples/nominalQPS)
	qs := makeQueries(int(nominalQPS*math.Pow(ladderRatio, ladderRungs-1)*maxLen)+1, st.g.N, b.seed)
	gen := newGenerator(st.base, conns, func(q query, a *answer) error {
		bd := st.bundles[a.Version]
		if bd == nil {
			return fmt.Errorf("answer from unknown version v%d", a.Version)
		}
		if q.classify {
			want, err := bd.Classify([]int{q.node})
			if err != nil || len(a.Classes) != 1 || a.Classes[0] != want[0] {
				return fmt.Errorf("classify %d: got %v, v%d bundle says %v (%v)", q.node, a.Classes, a.Version, want, err)
			}
			return nil
		}
		want, err := bd.Score([][2]int{q.pair})
		if err != nil || len(a.Scores) != 1 || math.Float64bits(a.Scores[0]) != math.Float64bits(want[0]) {
			return fmt.Errorf("score %v: got %v, v%d bundle says %v (%v)", q.pair, a.Scores, a.Version, want, err)
		}
		return nil
	})
	defer gen.close()
	var phase *span
	if b.sp != nil {
		for c := 0; c < conns; c++ {
			b.sp.tr.SetTrackName(1+c, fmt.Sprintf("connection %d", c))
		}
		gen.onSend = func(conn int, sent, done time.Time, q query) {
			name := "http score"
			if q.classify {
				name = "http classify"
			}
			now := b.sp.tr.Now()
			b.sp.record(1+conn, name, phase.id, now-time.Since(sent).Seconds(), now-time.Since(done).Seconds())
		}
	}

	// Nominal phase, with the hot swap to v2 at its midpoint.
	phase = b.sp.begin("serve.nominal", nil)
	length := seconds(nominalShare * b.seconds)
	start := time.Now().Add(20 * time.Millisecond)
	var swapDur time.Duration
	swapped := false
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(start.Add(length / 2)))
		sp := b.sp.begin("serve.Server.Swap", phase)
		t0 := time.Now()
		swapped = st.srv.Swap(st.v2)
		swapDur = time.Since(t0)
		sp.end()
	}()
	stopSampler := sampleQueueDepth(b, st.reg)
	outs := gen.run(qs, nominalQPS, start, length)
	depth := stopSampler()
	wg.Wait()
	phase.end()
	nominal := summarize(outs, nominalQPS, length)
	b.attempted += int64(nominal.Scheduled)
	b.failed += int64(nominal.Failed)
	var maxV uint64
	for _, o := range outs {
		maxV = max(maxV, o.version)
	}
	b.check(swapped, "hot swap to v%d was rejected", st.v2.Version)
	b.check(maxV == st.v2.Version, "no answer came from v%d after the hot swap (newest seen v%d)", st.v2.Version, maxV)
	b.endToEnd("serve_p99_ms", nominal.P99ms)
	b.detail["nominal"] = nominal
	b.detail["live_swap_us"] = us(swapDur)

	// Ladder.
	var rungs []phaseStats
	for _, rate := range ladderRates(nominalQPS, ladderRatio, ladderRungs) {
		phase = b.sp.begin(fmt.Sprintf("serve.rung %.0f qps", rate), nil)
		length := seconds(max(b.seconds/10, rungSamples/rate))
		outs := gen.run(qs, rate, time.Now().Add(20*time.Millisecond), length)
		phase.end()
		r := summarize(outs, rate, length)
		rungs = append(rungs, r)
		b.attempted += int64(r.Scheduled)
		b.failed += int64(r.Failed)
		if !r.meets(limitMs) {
			break
		}
	}
	maxQPS := ladderMax(rungs, limitMs)
	// The rate is the most the replica sustains within the limit; the
	// operation time is a request's, from its due time at the nominal rate.
	b.operations(maxQPS, nominal.P50ms)
	b.endToEnd("final_metric", st.acc)
	b.endToEnd("model_time_s", st.modelTime)
	b.endToEnd("comm_mb", float64(st.sys.Net.Snapshot().TotalBytes())/1e6)
	b.detail["ladder"] = rungs
	if err := b.stopProfiling(); err != nil {
		return err
	}
	b.check(gen.wrong.Load() == 0, "%d wrong answers or version regressions: %v", gen.wrong.Load(), gen.problems)
	if len(gen.problems) > 0 {
		b.detail["request_problems"] = gen.problems
	}

	b.perLayer("serve.gen_late_ms.max", nominal.LateMaxMs)
	if b.traced {
		b.perLayer("serve.queue_depth.max", depth)
		b.perLayer("serve.batch_size.mean", histMean(st.reg, "lumos_serve_batch_size"))
		if err := stageSplit(b, st, qs); err != nil {
			return err
		}
	}
	return balanceLayer(b, st.sys)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setupServe trains, publishes v1 and v2, builds their bundles, and starts
// the replica. Every published bundle must answer bit-identically to the
// trainer it was captured from.
func setupServe(b *bench, parent *span) (*serveSetup, error) {
	g, split, err := loadGraph(b, serveScale, parent)
	if err != nil {
		return nil, err
	}
	sys, err := newSystem(b, g, core.Config{
		Task: core.Supervised, Epochs: serveEpochs, MCMCIterations: serveMCMC, Seed: b.seed,
	}, parent)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.out, "serve-snap-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.snap")
	rng := rand.New(rand.NewSource(b.seed))
	pairs := make([][2]int, 64)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(g.N), rng.Intn(g.N)}
	}

	st := &serveSetup{g: g, bundles: map[uint64]*serve.Bundle{}}
	var v1 *serve.Bundle
	for round := 1; round <= 2; round++ {
		sp := b.sp.begin("core.System.TrainSupervised", parent)
		stats, err := sys.TrainSupervised(split)
		sp.end()
		if err != nil {
			return nil, err
		}
		st.modelTime += stats.SimEpochTime.Seconds() * serveEpochs
		preds, err := sys.Predictions()
		if err != nil {
			return nil, err
		}
		scores, err := sys.PairScores(pairs)
		if err != nil {
			return nil, err
		}
		acc, err := sys.EvaluateAccuracy(split.IsTest)
		if err != nil {
			return nil, err
		}
		bd, size, err := publish(b, sys, snapshot.Meta{
			Dataset: g.Name, Seed: b.seed, Round: round * serveEpochs, Metric: acc, MetricName: "accuracy",
		}, path, parent)
		if err != nil {
			return nil, err
		}
		if err := sameAnswers(bd, preds, pairs, scores); err != nil {
			b.check(false, "snapshot v%d round trip: %v", bd.Version, err)
		}
		st.bundles[bd.Version] = bd
		st.snapLen, st.acc = size, acc
		if round == 1 {
			v1 = bd
		} else {
			st.v2 = bd
		}
	}
	if v1.Version != 1 || st.v2.Version != 2 {
		return nil, fmt.Errorf("published versions v%d, v%d; want v1, v2", v1.Version, st.v2.Version)
	}
	st.sys = sys

	if b.traced {
		st.reg = obs.New()
	}
	st.srv = serve.New(serve.Options{Metrics: st.reg})
	st.srv.Swap(v1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Close()
		return nil, err
	}
	st.hs = &http.Server{Handler: st.srv.Handler()}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	return st, nil
}

// publish captures, encodes, publishes, reads back and bundles one model
// version, timing each step as the snapshot and serve layers.
func publish(b *bench, sys *core.System, meta snapshot.Meta, path string, parent *span) (*serve.Bundle, int64, error) {
	timed := func(name, metricName string, f func() error) error {
		sp := b.sp.begin(name, parent)
		defer sp.end()
		t0 := time.Now()
		err := f()
		b.sample(metricName, ms(time.Since(t0)))
		return err
	}
	var snap, loaded *snapshot.Snapshot
	var bd *serve.Bundle
	var v uint64
	var cw countingWriter
	err := timed("snapshot.Capture", "snapshot.capture_ms", func() (err error) {
		snap, err = snapshot.Capture(sys, meta)
		return err
	})
	if err == nil {
		err = timed("snapshot.Snapshot.Encode", "snapshot.encode_ms", func() error { return snap.Encode(&cw) })
	}
	if err == nil {
		b.sample("snapshot.bytes", float64(cw))
		err = timed("snapshot.PublishNext", "snapshot.publish_ms", func() (err error) {
			v, err = snapshot.PublishNext(path, snap)
			return err
		})
	}
	if err == nil {
		err = timed("snapshot.Read", "snapshot.read_ms", func() (err error) {
			loaded, err = snapshot.Read(path)
			return err
		})
	}
	if err == nil {
		err = timed("serve.NewBundle", "serve.bundle_ms", func() (err error) {
			bd, err = serve.NewBundle(loaded)
			return err
		})
	}
	if err != nil {
		return nil, 0, err
	}
	if bd.Version != v {
		return nil, 0, fmt.Errorf("bundle has version %d, published %d", bd.Version, v)
	}
	return bd, int64(cw), nil
}

// sameAnswers checks a bundle against the trainer's own predictions and
// pair scores, bit for bit.
func sameAnswers(bd *serve.Bundle, preds []int, pairs [][2]int, scores []float64) error {
	nodes := make([]int, len(preds))
	for i := range nodes {
		nodes[i] = i
	}
	got, err := bd.Classify(nodes)
	if err != nil {
		return err
	}
	for i := range preds {
		if got[i] != preds[i] {
			return fmt.Errorf("vertex %d: bundle class %d, trainer %d", i, got[i], preds[i])
		}
	}
	gs, err := bd.Score(pairs)
	if err != nil {
		return err
	}
	for i := range scores {
		if math.Float64bits(gs[i]) != math.Float64bits(scores[i]) {
			return fmt.Errorf("pair %v: bundle score %v, trainer %v", pairs[i], gs[i], scores[i])
		}
	}
	return nil
}

// countingWriter counts the bytes written to it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// sampleQueueDepth samples the replica's queue-depth gauge every 5 ms until
// the returned stop function is called; stop returns the largest depth
// seen. Untraced runs have no registry and sample nothing.
func sampleQueueDepth(b *bench, reg *obs.Registry) (stop func() float64) {
	if reg == nil {
		return func() float64 { return 0 }
	}
	quit := make(chan struct{})
	done := make(chan float64)
	go func() {
		peak := 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var buf bytes.Buffer
		for {
			select {
			case <-quit:
				done <- peak
				return
			case <-tick.C:
				buf.Reset()
				if err := reg.WritePrometheus(&buf); err != nil {
					continue
				}
				if m, err := obs.ParsePrometheus(buf.String()); err == nil {
					peak = max(peak, m["lumos_serve_queue_depth"])
				}
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-done
	}
}

// stageSplit replays the nominal query stream through each serving stage
// directly, one caller at a time: the bundle lookup alone, the batching
// server in front of it, and the hot swap.
func stageSplit(b *bench, st *serveSetup, qs []query) error {
	var bundleUs, serverUs []float64
	for _, q := range qs {
		if !q.classify {
			continue
		}
		if len(bundleUs) == stageCalls {
			break
		}
		sp := b.sp.begin("serve.Bundle.Classify", nil)
		t0 := time.Now()
		_, err := st.v2.Classify([]int{q.node})
		bundleUs = append(bundleUs, us(time.Since(t0)))
		sp.end()
		if err != nil {
			return err
		}
		sp = b.sp.begin("serve.Server.Classify", nil)
		t0 = time.Now()
		_, _, err = st.srv.Classify([]int{q.node})
		serverUs = append(serverUs, us(time.Since(t0)))
		sp.end()
		if err != nil {
			return err
		}
	}
	b.perLayer("serve.bundle_classify_us", median(bundleUs))
	b.perLayer("serve.server_classify_us", median(serverUs))

	// Swaps on a scratch replica, each to a copy of v2 one version newer.
	scratch := serve.New(serve.Options{})
	defer scratch.Close()
	var swapUs []float64
	for i := 0; i < stageCalls; i++ {
		next := *st.v2
		next.Version = uint64(i + 1)
		sp := b.sp.begin("serve.Server.Swap", nil)
		t0 := time.Now()
		ok := scratch.Swap(&next)
		swapUs = append(swapUs, us(time.Since(t0)))
		sp.end()
		if !ok {
			return errors.New("scratch replica rejected a newer version")
		}
	}
	b.perLayer("serve.swap_us", median(swapUs))
	return nil
}
