package main

// `--workload all` runs every workload, each in a fresh child process, and
// prints every end-to-end metric by name and unit. With --trace 1 it also
// makes each workload's traced run and prints the tracing overhead: the
// traced run's throughput against the untraced one's.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func runAll(seed int64, secs int, traced bool, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	combined := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloadOrder {
		modes := []int{0}
		if traced {
			modes = append(modes, 1)
		}
		var recs []*record
		for _, tr := range modes {
			res, err := runChild(exe, w, seed, secs, tr, out)
			if err != nil {
				logf("%s (trace %d): %v", w, tr, err)
				combined.Correct = false
			}
			if res == nil {
				continue
			}
			combined.Attempted += res.Attempted
			combined.Failed += res.Failed
			combined.Correct = combined.Correct && res.Correct
			rec, err := readRecord(fmt.Sprintf("%s/%s-seed%d-trace%d.json", out, w, seed, tr))
			if err != nil {
				logf("%v", err)
				combined.Correct = false
				continue
			}
			recs = append(recs, rec)
		}
		if len(recs) == 0 {
			continue
		}
		printTable(os.Stdout, w, recs[0].EndToEnd)
		for k, m := range recs[0].EndToEnd {
			combined.Metrics[w+"/"+k] = m
		}
		if len(recs) == 2 {
			for _, name := range []string{"ops_per_s", "op_p50_ms"} {
				un, tr := recs[0].EndToEnd[name].Value, recs[1].PerLayer["traced."+name].Value
				fmt.Printf("%-10s tracing overhead: traced %s %.6g vs untraced %.6g (ratio %.3f)\n", w, name, tr, un, tr/un)
			}
		}
	}
	line, err := json.Marshal(combined)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !combined.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in its own process and returns the result
// line it ended with.
func runChild(exe, workload string, seed int64, secs, trace int, out string) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(secs), "--trace", strconv.Itoa(trace), "--out", out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("reading result line: %w", err)
	}
	return &res, runErr
}

func readRecord(path string) (*record, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
