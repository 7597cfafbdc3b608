// Command lumosbench is the repository benchmark. Each invocation runs one
// workload in a fresh process, checks the program's outputs, and prints its
// metrics; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the gated end-to-end metrics, every one of
// them on every workload; with --trace 1 they are the per-layer metrics, measured with spans
// around the benchmark's calls into each layer and a CPU profile. Build and
// run it through run.sh; README.md lists the workloads, the metrics and
// which end-to-end metric each layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"lumos/internal/obs"
)

// setupRepeats is how often a run sets its workload up; setup_s is the
// median, and the last setup's products are measured.
const setupRepeats = 3

// workloads maps each workload name to its body.
var workloads = map[string]func(*bench) error{
	"sim-gossip": runSimGossip,
	"sim-sync":   runSimSync,
	"serve":      runServe,
	"train":      runTrain,
}

// workloadOrder is the order `--workload all` runs them in.
var workloadOrder = []string{"sim-gossip", "sim-sync", "serve", "train"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runMeta identifies the machine, toolchain, commit and inputs of a run;
// results are only comparable when the CPU model and counts agree.
type runMeta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Created    string `json:"created"`
}

// record is the result file a run leaves in its output directory.
type record struct {
	Meta       runMeta           `json:"meta"`
	Result     result            `json:"result"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	Violations []string          `json:"violations,omitempty"`
	Detail     map[string]any    `json:"detail,omitempty"`
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string // directory for records, traces and profiles

	sp   *spans // nil when untraced
	prof *profile

	e2e, layer map[string]metric
	samples    map[string][]float64 // per-layer timings, reported as medians
	detail     map[string]any

	attempted, failed int64
	violations        []string
}

func (b *bench) endToEnd(name string, v float64) {
	b.e2e[name] = metric{v, lookup(endToEndMetrics, name).unit}
}
func (b *bench) perLayer(name string, v float64) {
	b.layer[name] = metric{v, lookup(perLayerMetrics, name).unit}
}

// operations reports the workload's operation rate and median operation
// time, end to end and, in the traced run, as the traced.* per-layer
// metrics the tracing overhead is read from.
func (b *bench) operations(perSecond, p50ms float64) {
	b.endToEnd("ops_per_s", perSecond)
	b.endToEnd("op_p50_ms", p50ms)
	if b.traced {
		b.perLayer("traced.ops_per_s", perSecond)
		b.perLayer("traced.op_p50_ms", p50ms)
	}
}

// sample adds one observation of a per-layer metric reported as a median.
func (b *bench) sample(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// check records a correctness violation when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.violations = append(b.violations, fmt.Sprintf(format, args...))
	}
}

// outPath names a file of this run in the output directory.
func (b *bench) outPath(suffix string) string {
	return filepath.Join(b.out, fmt.Sprintf("%s-seed%d%s", b.workload, b.seed, suffix))
}

// startProfiling starts the traced run's CPU profile (no-op untraced).
func (b *bench) startProfiling() error {
	if !b.traced || b.prof != nil {
		return nil
	}
	p, err := startProfile(b.outPath(".cpu.pprof"))
	if err != nil {
		return err
	}
	b.prof = p
	return nil
}

// stopProfiling stops the profile and reports its CPU shares.
func (b *bench) stopProfiling() error {
	if b.prof == nil {
		return nil
	}
	p := b.prof
	b.prof = nil
	if err := p.stop(); err != nil {
		return err
	}
	shares, err := cpuShares(p.path)
	if err != nil {
		return err
	}
	for k, v := range shares {
		b.perLayer(k, v)
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "train|sim-sync|sim-gossip|serve|all")
		seed     = flag.Int64("seed", 1, "workload input seed")
		secs     = flag.Int("seconds", 10, "measured run length the workload is sized for, seconds")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and a CPU profile")
		out      = flag.String("out", ".bench_out", "directory for result records, traces and profiles")
	)
	flag.Parse()
	if *secs < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *secs, *trace == 1, *out))
	}
	body, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q (want train|sim-sync|sim-gossip|serve|all)", *workload)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: float64(*secs), traced: *trace == 1, out: *out,
		e2e: map[string]metric{}, layer: map[string]metric{}, samples: map[string][]float64{}, detail: map[string]any{},
	}
	meta := runMeta{
		Workload: *workload, Seed: *seed, Seconds: *secs, Trace: b.traced,
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Created: time.Now().UTC().Format(time.RFC3339),
	}
	if b.traced {
		b.sp = &spans{tr: obs.NewTracer()}
		b.sp.tr.SetTrackName(0, "workload")
	}
	if err := body(b); err != nil {
		fatalf("%s: %v", *workload, err)
	}
	b.endToEnd("peak_rss_mb", peakRSSMB())
	for name, xs := range b.samples {
		b.perLayer(name, median(xs))
	}
	if b.traced {
		if err := b.sp.tr.WriteFile(b.outPath(".trace.json")); err != nil {
			fatalf("writing trace: %v", err)
		}
	}

	res := result{Correct: len(b.violations) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range endToEndMetrics {
		if d.printedOnly {
			continue
		}
		m, ok := b.e2e[d.name]
		if !ok {
			// A result line missing a gated metric is a bug in the
			// workload; print none rather than an incomplete one.
			fatalf("%s: no %s measured", *workload, d.name)
		}
		res.Metrics[d.name] = m
	}
	if b.traced {
		// Every per-layer metric is printed; one a workload does not
		// exercise reads 0.
		for _, m := range perLayerMetrics {
			if _, ok := b.layer[m.name]; !ok {
				b.layer[m.name] = metric{0, m.unit}
			}
		}
		res.Metrics = b.layer
	}
	rec := record{Meta: meta, Result: res, EndToEnd: b.e2e, Violations: b.violations, Detail: b.detail}
	if b.traced {
		rec.PerLayer = b.layer
	}
	if err := writeJSON(b.outPath(fmt.Sprintf("-trace%d.json", *trace)), rec); err != nil {
		fatalf("writing record: %v", err)
	}

	printTable(os.Stdout, *workload, b.e2e, b.layer)
	for _, v := range b.violations {
		fmt.Printf("CORRECTNESS VIOLATION: %s\n", v)
	}
	metaLine, _ := json.Marshal(map[string]any{"meta": meta}) // strings and ints only: cannot fail
	fmt.Println(string(metaLine))
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printTable prints metrics by name with their units.
func printTable(w io.Writer, workload string, groups ...map[string]metric) {
	for _, g := range groups {
		names := make([]string, 0, len(g))
		for k := range g {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "%-10s %-28s %16.6g %s\n", workload, k, g[k].Value, g[k].Unit)
		}
	}
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source commit run.sh found, if any.
func commit() string {
	if c := os.Getenv("LUMOSBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(v), " kB"), &kb)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuUtil is CPU time over wall time, as a share of GOMAXPROCS cores.
func cpuUtil(cpu, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lumosbench: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lumosbench: "+format+"\n", args...)
}
