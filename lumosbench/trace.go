package main

// The traced run's instruments, all outside the program: wall-clock spans
// around the benchmark's calls into the public functions of each layer
// (kept in an obs.Tracer in memory and written as Chrome JSON at exit), and
// a runtime/pprof CPU profile of the benchmark process, read back with
// `go tool pprof` into each layer's share of CPU time.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"

	"lumos/internal/obs"
)

// spans records wall-clock spans with span and parent ids in their args. A
// nil *spans records nothing, so untraced code needs no branches.
type spans struct {
	tr   *obs.Tracer
	next atomic.Int64
}

// span is an open span; end records it.
type span struct {
	s      *spans
	id     int64
	parent int64
	name   string
	start  float64
}

// begin opens a span named name on the workload's track (0) under parent
// (nil = root).
func (s *spans) begin(name string, parent *span) *span {
	if s == nil {
		return nil
	}
	sp := &span{s: s, id: s.next.Add(1), name: name, start: s.tr.Now()}
	if parent != nil {
		sp.parent = parent.id
	}
	return sp
}

// end closes the span at the current time.
func (sp *span) end() {
	if sp == nil {
		return
	}
	sp.s.record(0, sp.name, sp.parent, sp.start, sp.s.tr.Now())
}

// record stores a finished span with explicit bounds in tracer seconds.
func (s *spans) record(tid int, name string, parent int64, start, end float64) {
	if s == nil {
		return
	}
	s.tr.Span(tid, "lumosbench", name, start, end,
		map[string]any{"id": s.next.Add(1), "parent": parent})
}

// profile is a running CPU profile written to a file.
type profile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return &profile{path: path, f: f}, nil
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// cpuShares reads a CPU profile's sampled stacks with
// `go tool pprof -traces` and returns each layer's share of all samples.
func cpuShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return parseTraces(out.String())
}

// cpuGroupNames are the layers cpuGroup charges samples to.
var cpuGroupNames = []string{
	"cpu.tensor.AddInPlace", "cpu.tensor.matmul", "cpu.smc", "cpu.balance", "cpu.autodiff",
	"cpu.core", "cpu.sim", "cpu.gc", "cpu.http_json", "cpu.serve",
}

// cpuGroup charges one sampled stack (leaf first) to a layer: garbage
// collection when a GC worker or mark assist is on the stack, otherwise the
// layer of the frame nearest the leaf that belongs to one, so standard
// library and runtime time counts as self time of the layer that called
// it. It returns "" for samples of other packages.
func cpuGroup(stack []string) string {
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" || fn == "runtime.gcAssistAlloc" {
			return "cpu.gc"
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "lumos/internal/"); ok {
			pkg, name, _ := strings.Cut(rest, ".")
			switch pkg {
			case "tensor":
				if name == "AddInPlace" {
					return "cpu.tensor.AddInPlace"
				}
				if strings.Contains(strings.ToLower(name), "matmul") {
					return "cpu.tensor.matmul"
				}
				return ""
			case "smc", "balance", "autodiff", "core", "serve":
				return "cpu." + pkg
			case "sim", "fleet":
				return "cpu.sim"
			default:
				return ""
			}
		}
		for _, p := range []string{"net/http.", "net.", "encoding/json.", "bufio.", "internal/poll.", "syscall."} {
			if strings.HasPrefix(fn, p) {
				return "cpu.http_json"
			}
		}
	}
	return ""
}

// traceValue matches the first line of a sample in `go tool pprof -traces`:
// the sample's value with its unit, then the leaf function.
var traceValue = regexp.MustCompile(`^\s*([0-9.]+)(\pL*)\s+(\S.*)$`)

// parseTraces folds `go tool pprof -traces` text into layer shares.
func parseTraces(text string) (map[string]float64, error) {
	shares := make(map[string]float64, len(cpuGroupNames))
	for _, g := range cpuGroupNames {
		shares[g] = 0
	}
	total := 0.0
	value := 0.0
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			total += value
			if g := cpuGroup(stack); g != "" {
				shares[g] += value
			}
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	inSample := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			continue
		}
		if !inSample || strings.TrimSpace(line) == "" {
			continue
		}
		fn := strings.TrimSpace(line)
		if len(stack) == 0 {
			m := traceValue.FindStringSubmatch(line)
			if m == nil {
				return nil, fmt.Errorf("go tool pprof: unexpected sample line %q", line)
			}
			v, err := pprofSeconds(m[1], m[2])
			if err != nil {
				return nil, err
			}
			value, fn = v, m[3]
		}
		stack = append(stack, strings.TrimSuffix(fn, " (inline)"))
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// pprofSeconds converts a pprof sample value with its unit to seconds.
func pprofSeconds(v, unit string) (float64, error) {
	x, err := strconv.ParseFloat(v, 64)
	if err != nil || x == 0 {
		return 0, err
	}
	scale := map[string]float64{"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "min": 60, "hrs": 3600}[unit]
	if scale == 0 {
		return 0, fmt.Errorf("go tool pprof: unknown unit %q", unit)
	}
	return x * scale, nil
}
