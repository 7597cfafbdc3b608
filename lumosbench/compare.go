package main

// `lumosbench compare <base-dir> <change-dir>` compares two sets of
// untraced result records (the *-trace0.json files runs leave in their
// output directory): per workload and end-to-end metric, the median of each
// side and the change, flagged when the change is worse than the metric's
// bound in BENCHMARK.json. Records from different CPU models or core counts
// are refused, since their numbers do not compare.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: lumosbench compare [-bench BENCHMARK.json] <base-dir> <change-dir>")
		return 2
	}
	var def benchmarkFile
	blob, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(blob, &def)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lumosbench compare: reading %s: %v\n", *benchPath, err)
		return 2
	}
	sides := make([][]record, 2)
	for i, dir := range fs.Args() {
		if sides[i], err = loadRecords(dir); err != nil {
			fmt.Fprintf(os.Stderr, "lumosbench compare: %v\n", err)
			return 2
		}
	}
	if err := sameMachine(append(append([]record(nil), sides[0]...), sides[1]...)); err != nil {
		fmt.Fprintf(os.Stderr, "lumosbench compare: refusing to compare: %v\n", err)
		return 2
	}

	values := func(recs []record, workload, name string) []float64 {
		var xs []float64
		for _, r := range recs {
			if m, ok := r.EndToEnd[name]; ok && r.Meta.Workload == workload {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	workloadSet := map[string]bool{}
	for _, r := range sides[0] {
		workloadSet[r.Meta.Workload] = true
	}
	var names []string
	for w := range workloadSet {
		names = append(names, w)
	}
	sort.Strings(names)
	worse := 0
	fmt.Printf("%-10s %-18s %5s %14s %14s %9s %7s\n", "workload", "metric", "runs", "base median", "change median", "change", "bound")
	for _, w := range names {
		for _, m := range def.EndToEnd {
			a, b := values(sides[0], w, m.Name), values(sides[1], w, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			change := (mb - ma) / ma
			worsening := change
			if m.Better == "higher" {
				worsening = -change
			}
			verdict := ""
			if worsening > m.Bound {
				verdict = "WORSE"
				worse++
			}
			fmt.Printf("%-10s %-18s %2d/%-2d %14.6g %14.6g %+8.1f%% %6.0f%% %s\n",
				w, m.Name, len(a), len(b), ma, mb, 100*change, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

// loadRecords reads the untraced result records in dir.
func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s holds no *-trace0.json result records", dir)
	}
	recs := make([]record, 0, len(paths))
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// sameMachine reports an error unless every record ran on the same CPU
// model with the same CPU and GOMAXPROCS counts.
func sameMachine(recs []record) error {
	for _, r := range recs[1:] {
		a, b := recs[0].Meta, r.Meta
		if a.CPUModel != b.CPUModel || a.NumCPU != b.NumCPU || a.GOMAXPROCS != b.GOMAXPROCS {
			return fmt.Errorf("%q with %d CPUs (GOMAXPROCS %d) vs %q with %d CPUs (GOMAXPROCS %d)",
				a.CPUModel, a.NumCPU, a.GOMAXPROCS, b.CPUModel, b.NumCPU, b.GOMAXPROCS)
		}
	}
	return nil
}
