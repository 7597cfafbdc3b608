package main

// Open-loop load generation for the serve workload. Requests are due on a
// fixed schedule (request i of a phase at start + i/rate) whether or not
// earlier ones have been answered; a fixed set of senders, each owning one
// keep-alive connection, sends every request as soon as it is due and a
// sender is free. Latency runs from the due time, so a stall also charges
// the requests queued behind it, and the generator's own lateness (send
// time minus due time) is reported next to it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// query is one single-item request of the serve mix: classify one vertex or
// score one vertex pair.
type query struct {
	classify bool
	node     int
	pair     [2]int
}

// makeQueries draws n queries over a graph of the given size: 70% classify,
// 30% score, vertices zipf(1.3)-distributed, as in serve.RunLoad.
func makeQueries(n, nodes int, seed int64) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x7175657279))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(nodes-1))
	qs := make([]query, n)
	for i := range qs {
		if rng.Float64() < 0.7 {
			qs[i] = query{classify: true, node: int(zipf.Uint64())}
		} else {
			qs[i] = query{pair: [2]int{int(zipf.Uint64()), int(zipf.Uint64())}}
		}
	}
	return qs
}

// answer is a decoded reply.
type answer struct {
	Version uint64    `json:"version"`
	Classes []int     `json:"classes"`
	Scores  []float64 `json:"scores"`
}

// outcome is what the generator saw for one scheduled request. Times are
// offsets from the phase start; sent < 0 means the request was never sent
// because the phase had ended before a sender was free.
type outcome struct {
	due, sent, done time.Duration
	ok              bool // transport, status, answer and version all good
	version         uint64
}

// phaseStats summarizes one phase (the nominal phase or one ladder rung).
type phaseStats struct {
	Offered   float64 `json:"offered_qps"`
	Achieved  float64 `json:"achieved_qps"` // good answers in time, per second
	Scheduled int     `json:"scheduled"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Missed    int     `json:"missed"` // unsent, failed or answered after the phase ended
	P50ms     float64 `json:"p50_ms"`
	// P99ms is p99, or the highest percentile below it that the sample
	// supports (see tailPercentile) when there are under 1000 requests.
	P99ms     float64 `json:"p99_ms"`
	TailPct   float64 `json:"tail_pct"`
	TailMs    float64 `json:"tail_ms"`
	LateMaxMs float64 `json:"gen_late_max_ms"`
	LateAvgMs float64 `json:"gen_late_mean_ms"`
}

// summarize folds a phase's outcomes into its stats. A request counts
// against the latency percentiles with infinite latency when it failed, was
// never sent, or was answered after the phase's end; an infinite tail is
// reported as the phase length, which exceeds any sensible limit.
func summarize(outs []outcome, rate float64, length time.Duration) phaseStats {
	st := phaseStats{Offered: rate, Scheduled: len(outs)}
	lats := make([]float64, 0, len(outs))
	var late []float64
	inTime := 0
	for _, o := range outs {
		lat := math.Inf(1)
		if o.sent >= 0 {
			st.Sent++
			late = append(late, ms(o.sent-o.due))
			if o.ok {
				st.Succeeded++
				if o.done <= length {
					lat = ms(o.done - o.due)
					inTime++
				}
			} else {
				st.Failed++
			}
		}
		if math.IsInf(lat, 1) {
			st.Missed++
		}
		lats = append(lats, lat)
	}
	sort.Float64s(lats)
	st.TailPct = tailPercentile(len(lats))
	st.P50ms = finiteOr(percentile(lats, 50), ms(length))
	if st.TailPct > 0 {
		st.TailMs = finiteOr(percentile(lats, st.TailPct), ms(length))
		st.P99ms = finiteOr(percentile(lats, min(99, st.TailPct)), ms(length))
	}
	if len(late) > 0 {
		st.LateAvgMs = mean(late)
		sort.Float64s(late)
		st.LateMaxMs = late[len(late)-1]
	}
	if length > 0 {
		st.Achieved = float64(inTime) / length.Seconds()
	}
	return st
}

func finiteOr(v, alt float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return alt
	}
	return v
}

// meets reports whether a rung met the latency limit on p99 without a
// growing backlog: at least 95% of the offered rate was answered in time.
func (st phaseStats) meets(limitMs float64) bool {
	return st.TailPct > 0 && st.P99ms <= limitMs && st.Achieved >= 0.95*st.Offered
}

// ladderMax returns the achieved rate of the highest rung in the passing
// prefix of a ladder climbed bottom-up (0 when the first rung failed).
func ladderMax(rungs []phaseStats, limitMs float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.meets(limitMs) {
			break
		}
		best = r.Achieved
	}
	return best
}

// ladderRates returns the offered rates of the ladder: n rungs from base,
// ×ratio per rung.
func ladderRates(base, ratio float64, n int) []float64 {
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = base * math.Pow(ratio, float64(i))
	}
	return rates
}

// generator sends queries over a fixed set of keep-alive connections.
type generator struct {
	base    string
	clients []*http.Client
	// check validates a decoded answer for q; it returns an error for a
	// wrong answer. It is called from sender goroutines.
	check func(q query, a *answer) error
	// onSend, when set, is called from the sender with each request's send
	// and answer times (the traced run records them as spans).
	onSend func(conn int, sent, done time.Time, q query)

	// wrong counts wrong answers and version regressions.
	wrong    atomic.Int64
	mu       sync.Mutex
	problems []string
	lastV    []uint64 // per connection: last version seen
}

func newGenerator(base string, conns int, check func(query, *answer) error) *generator {
	g := &generator{base: base, check: check, lastV: make([]uint64, conns)}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

// close drops the idle keep-alive connections.
func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// problem records a failed request's reason (only the first few are kept).
func (g *generator) problem(format string, args ...any) {
	g.mu.Lock()
	if len(g.problems) < 8 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// run offers qs[i] at start + i/rate for every i whose due time falls
// before start + length, and returns once every sent request has been
// answered. Requests not yet sent when the phase ends are not sent.
func (g *generator) run(qs []query, rate float64, start time.Time, length time.Duration) []outcome {
	total := int(rate * length.Seconds())
	if total > len(qs) {
		total = len(qs)
	}
	outs := make([]outcome, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if d := time.Until(start.Add(due)); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				if sent >= length {
					outs[i] = outcome{due: due, sent: -1}
					continue
				}
				version, ok := g.send(c, qs[i])
				done := time.Since(start)
				outs[i] = outcome{due: due, sent: sent, done: done, ok: ok, version: version}
				if g.onSend != nil {
					g.onSend(c, start.Add(sent), start.Add(done), qs[i])
				}
			}
		}()
	}
	wg.Wait()
	return outs
}

// send issues one request on connection c and validates the reply: HTTP
// 200, a decodable body, the right answer for the version served, and no
// version older than one this connection already saw.
func (g *generator) send(c int, q query) (uint64, bool) {
	var body []byte
	path := "/v1/score"
	if q.classify {
		path = "/v1/classify"
		body = fmt.Appendf(nil, `{"nodes":[%d]}`, q.node)
	} else {
		body = fmt.Appendf(nil, `{"pairs":[[%d,%d]]}`, q.pair[0], q.pair[1])
	}
	resp, err := g.clients[c].Post(g.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		g.problem("conn %d: %v", c, err)
		return 0, false
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		g.problem("conn %d: reading %s: %v", c, path, err)
		return 0, false
	}
	if resp.StatusCode != http.StatusOK {
		g.problem("conn %d: %s: %s: %s", c, path, resp.Status, bytes.TrimSpace(raw))
		return 0, false
	}
	var a answer
	if err := json.Unmarshal(raw, &a); err != nil {
		g.problem("conn %d: decoding %s: %v", c, path, err)
		return 0, false
	}
	if err := g.check(q, &a); err != nil {
		g.wrong.Add(1)
		g.problem("conn %d: %v", c, err)
		return a.Version, false
	}
	// Each connection is driven by exactly one sender goroutine, so its
	// lastV slot is only touched from here.
	if a.Version < g.lastV[c] {
		g.wrong.Add(1)
		g.problem("conn %d: version regression v%d -> v%d", c, g.lastV[c], a.Version)
		return a.Version, false
	}
	g.lastV[c] = a.Version
	return a.Version, true
}
