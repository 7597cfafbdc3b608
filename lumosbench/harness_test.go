package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

func msd(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

// TestSummarizeLateness checks the generator's accounting: lateness is
// send time minus due time over sent requests; unsent, failed and
// late-answered requests miss, and only in-time answers count toward the
// achieved rate.
func TestSummarizeLateness(t *testing.T) {
	outs := []outcome{
		{due: msd(0), sent: msd(0), done: msd(3), ok: true},
		{due: msd(10), sent: msd(12), done: msd(15), ok: true},
		{due: msd(20), sent: msd(25), done: msd(29), ok: true},
		{due: msd(30), sent: msd(31), done: msd(45), ok: true}, // answered after the phase
		{due: msd(35), sent: msd(36), done: msd(38), ok: false},
		{due: msd(38), sent: -1}, // never sent
	}
	st := summarize(outs, 150, msd(40))
	if st.Scheduled != 6 || st.Sent != 5 || st.Succeeded != 4 || st.Failed != 1 || st.Missed != 3 {
		t.Fatalf("counts = %+v", st)
	}
	if math.Abs(st.LateMaxMs-5) > 1e-9 || math.Abs(st.LateAvgMs-(0+2+5+1+1)/5.0) > 1e-9 {
		t.Errorf("lateness max %v mean %v, want 5 and 1.8", st.LateMaxMs, st.LateAvgMs)
	}
	if math.Abs(st.Achieved-3/0.040) > 1e-9 {
		t.Errorf("achieved %v, want 75", st.Achieved)
	}
	// Six samples support no tail percentile; p50 is the 3rd latency of
	// {3, 5, 9, Inf, Inf, Inf}.
	if st.TailPct != 0 || st.P50ms != 9 {
		t.Errorf("tail %v p50 %v, want 0 and 9", st.TailPct, st.P50ms)
	}
}

func TestSummarizeInfiniteTailReportsPhaseLength(t *testing.T) {
	var outs []outcome
	for i := 0; i < 1000; i++ {
		o := outcome{due: msd(float64(i)), sent: msd(float64(i)), done: msd(float64(i) + 1), ok: true}
		if i%50 == 0 {
			o.ok = false // 2% fail: p99 lands on a miss
		}
		outs = append(outs, o)
	}
	st := summarize(outs, 1000, time.Second)
	if st.TailPct != 99 || st.P99ms != 1000 || st.P50ms != 1 {
		t.Errorf("tail %v p99 %v p50 %v, want 99, 1000 (the phase length) and 1", st.TailPct, st.P99ms, st.P50ms)
	}
}

func TestLadderMax(t *testing.T) {
	rung := func(offered, achieved, p99 float64) phaseStats {
		return phaseStats{Offered: offered, Achieved: achieved, P99ms: p99, TailPct: 99}
	}
	rungs := []phaseStats{
		rung(100, 100, 5),
		rung(141, 140, 8),
		rung(200, 185, 9),   // backlog: achieved below 95% of offered
		rung(283, 283, 7),   // passes, but above a failed rung
		rung(400, 400, 500), // misses the limit
	}
	if got := ladderMax(rungs, 10); got != 140 {
		t.Errorf("ladderMax = %v, want 140 (rung 1, the top of the passing prefix)", got)
	}
	if got := ladderMax(rungs[4:], 10); got != 0 {
		t.Errorf("ladderMax of a failing first rung = %v, want 0", got)
	}
	thin := rung(100, 100, 5)
	thin.TailPct = 0 // too few samples for any tail
	if thin.meets(10) {
		t.Error("a rung without a supported tail percentile met the limit")
	}
	rates := ladderRates(400, ladderRatio, 17)
	if math.Abs(rates[8]-800) > 1e-9 || math.Abs(rates[16]-1600) > 1e-9 {
		t.Errorf("ladderRates = %v, want 800 at rung 8 and 1600 at rung 16", rates)
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: lumosbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   lumos/internal/tensor.AddInPlace
             lumos/internal/core.(*engine).stepRound
-----------+-------------------------------------------------------
      20ms   math/rand.(*Rand).Int63 (inline)
             lumos/internal/smc.(*Party).bit (inline)
             lumos/internal/balance.(*comparer).less
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   runtime.memmove
             encoding/json.(*encodeState).marshal
             lumos/internal/serve.writeJSON
-----------+-------------------------------------------------------
      10ms   lumos/internal/tensor.matMulRowsBlocked
-----------+-------------------------------------------------------
      10ms   lumos/internal/graph.Generate
-----------+-------------------------------------------------------
`
	shares, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu.tensor.AddInPlace": 0.3, "cpu.smc": 0.2, "cpu.gc": 0.1,
		"cpu.http_json": 0.2, "cpu.tensor.matmul": 0.1, "cpu.balance": 0,
	}
	for k, v := range want {
		if math.Abs(shares[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, shares[k], v)
		}
	}
	if len(shares) != len(cpuGroupNames) {
		t.Errorf("got %d shares, want one per group (%d)", len(shares), len(cpuGroupNames))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and this program in step:
// the same workloads and metrics with the same units, and the workloads'
// stated parameters are the ones the code runs.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
		Why  string `json:"why"`
	}
	var def struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &def); err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	for _, m := range endToEndMetrics {
		if !m.printedOnly {
			e2e = append(e2e, m)
		}
	}
	same := func(what string, got []named, want []metricDef) {
		t.Helper()
		names := map[string]string{}
		for _, m := range got {
			names[m.Name] = m.Unit
		}
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for _, m := range want {
			if u, ok := names[m.name]; !ok || u != m.unit {
				t.Errorf("%s: %s [%s] is listed as [%s] (present %v)", what, m.name, m.unit, u, ok)
			}
		}
	}
	same("end_to_end", def.EndToEnd, e2e)
	same("per_layer", def.PerLayer, perLayerMetrics)

	why := map[string]string{}
	for _, w := range def.Workloads {
		why[w.Name] = w.Why
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no body", w.Name)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for name, facts := range map[string][]string{
		"train":      {"0.82", "T=1000", "every 5 epochs"},
		"serve":      {"400 QPS", "400 x 2^(k/8)", "p99 limit 50 ms", "2 connections"},
		"sim-sync":   {"churn 0.2", "participation 0.8", "1e9 B/s"},
		"sim-gossip": {"ring:2", "churn 0.2", "participation 0.8"},
	} {
		for _, f := range facts {
			if !strings.Contains(why[name], f) {
				t.Errorf("BENCHMARK.json why of %s does not state %q", name, f)
			}
		}
	}
	if trainTarget != 0.82 || trainCheckEvery != 5 || trainMCMC != 1000 || nominalQPS != 400 ||
		ladderRatio != 1.0905077326652577 || limitMs != 50 || simChurn != 0.2 || simParticipation != 0.8 || simSyncAggCapacity != 1e9 {
		t.Error("a workload parameter changed; update the why strings in BENCHMARK.json and this test")
	}
}

func TestSegmentRate(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(ms float64) time.Time { return start.Add(msd(ms)) }
	// Eight ops in four segments of two: 100 ms, a 400 ms stall, 100 ms,
	// 200 ms, so segment rates are 20, 5, 20 and 10 per second.
	done := []time.Time{at(50), at(100), at(300), at(500), at(550), at(600), at(700), at(800)}
	if got := median(segmentRates(start, done, 4)); math.Abs(got-15) > 1e-9 {
		t.Errorf("segmentRate = %v, want 15 (median of 20, 5, 20, 10)", got)
	}
	// Remainder ops fold into the last segment.
	if got := median(segmentRates(start, done[:3], 2)); math.Abs(got-14) > 1e-9 {
		t.Errorf("segmentRate with remainder = %v, want 14 (median of 20 and 8)", got)
	}
}
