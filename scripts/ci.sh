#!/usr/bin/env bash
# CI gate: vet, build, full test suite, then the race-detector pass over the
# training engine and everything that feeds it. Short mode keeps the race
# pass (which slows execution ~10x) at a few minutes on a laptop.
#
# The full (non-short) test pass includes the allocation-regression guard
# (internal/core/alloc_test.go): steady-state tape-engine epochs must stay
# under a fixed allocation budget. It is re-run by name below so a renamed
# or accidentally-skipped guard fails CI loudly.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
go test ./...

alloc_out=$(go test -run 'Test(Supervised|Unsupervised)EpochAllocBudget|TestUnsupervisedSessionAllocBudget|TestDisabledTelemetryAllocBudget' -count=1 -v ./internal/core)
for guard in TestSupervisedEpochAllocBudget TestUnsupervisedEpochAllocBudget TestUnsupervisedSessionAllocBudget TestDisabledTelemetryAllocBudget; do
	if ! grep -q -- "--- PASS: $guard" <<<"$alloc_out"; then
		echo "allocation-regression guard $guard did not pass:" >&2
		echo "$alloc_out" >&2
		exit 1
	fi
done

# Observability gates, re-run by name so a renamed or skipped guard fails
# loudly: the metrics hammer under the race detector (concurrent counters,
# gauges, histograms, and scrapers), the sim trace-determinism golden, and
# the replica /metrics scrape-and-parse suite. The /metrics smoke at CLI
# level rides inside TestServePublishServeQueryE2E below.
obs_out=$(go test -race -run 'TestMetricsHammerConcurrent' -count=1 -v ./internal/obs)
trace_out=$(go test -run 'TestSimTraceDeterministic|TestSimTraceChromeStructure' -count=1 -v ./internal/sim)
scrape_out=$(go test -run 'TestMetricsEndpointScrape|TestAccessLog' -count=1 -v ./internal/serve)
for gate in \
	"TestMetricsHammerConcurrent:$obs_out" \
	"TestSimTraceDeterministic:$trace_out" \
	"TestSimTraceChromeStructure:$trace_out" \
	"TestMetricsEndpointScrape:$scrape_out" \
	"TestAccessLog:$scrape_out"; do
	name=${gate%%:*}
	out=${gate#*:}
	if ! grep -q -- "--- PASS: $name" <<<"$out"; then
		echo "observability gate $name did not pass:" >&2
		echo "$out" >&2
		exit 1
	fi
done

# Fleet-subsystem gates, re-run by name so a renamed or skipped guard fails
# loudly: the trace-driven lumos-sim smoke row (datagen-written trace file →
# fleet.LoadTrace → contended simulation) and the energystudy example (exits
# non-zero unless fleet energy grows monotonically with participation).
smoke_out=$(go test -run 'TestEntryPointsBuildAndRun/(lumos-sim-trace|lumos-sim-telemetry|examples)/energystudy' -count=1 -v .)
for row in lumos-sim-trace lumos-sim-telemetry examples/energystudy; do
	if ! grep -q -- "--- PASS: TestEntryPointsBuildAndRun/$row" <<<"$smoke_out"; then
		echo "fleet smoke row $row did not pass:" >&2
		echo "$smoke_out" >&2
		exit 1
	fi
done

# Kernel gates, re-run by name so a renamed or skipped guard fails loudly:
# the equivalence property tests under the race detector (the blocked
# matmuls against the scalar oracle loops and the fused CSR aggregation
# against the unfused chain, bit-for-bit), the golden-trace re-check (its
# traces predate the blocked kernels), the tape-lifecycle goldens
# (recycled tapes against the fresh-tape oracle), and the compact shard
# combine against the dense AddN oracle. Names are matched up to
# the " (" that follows them, so one gate name cannot pass as a prefix of
# another.
kern_out=$(go test -race -run 'TestKernelEquivalence|TestCSRAggregate' -count=1 -v ./internal/tensor ./internal/autodiff)
golden_out=$(go test -run 'TestTrainersMatchPreSessionGoldens|TestTapeReuseMatchesFreshTapes|TestSparseCombineMatchesDenseOracle' -count=1 -v ./internal/core)
for gate in \
	"TestKernelEquivalenceMatMul:$kern_out" \
	"TestKernelEquivalenceMatMulNT:$kern_out" \
	"TestKernelEquivalenceMatMulTN:$kern_out" \
	"TestCSRAggregateKernelMatchesScatter:$kern_out" \
	"TestCSRAggregateMatchesUnfused:$kern_out" \
	"TestCSRAggregateMulMatchesUnfused:$kern_out" \
	"TestTrainersMatchPreSessionGoldens:$golden_out" \
	"TestTapeReuseMatchesFreshTapes:$golden_out" \
	"TestTapeReuseMatchesFreshTapesAsync:$golden_out" \
	"TestSparseCombineMatchesDenseOracle:$golden_out"; do
	name=${gate%%:*}
	out=${gate#*:}
	if ! grep -q -- "--- PASS: $name (" <<<"$out"; then
		echo "kernel gate $name did not pass:" >&2
		echo "$out" >&2
		exit 1
	fi
done

# Gossip/topology gates, re-run by name so a renamed or skipped guard fails
# loudly: decentralized-timeline determinism across worker counts under the
# race detector, the gossip-complete ≈ star-sync equivalence check, the
# star-timeline golden re-check (gossip wiring must not perturb the frozen
# hex-float timelines), and the smoke rows for the gossip CLI surface and
# the topologystudy example (which exits non-zero unless every topology
# lands within 5% of the star final at equal rounds).
gossip_out=$(go test -race -run 'TestGossipDeterminismAcrossWorkers|TestGossipCompleteMatchesStarSync' -count=1 -v ./internal/sim)
star_out=$(go test -run 'TestPreFleetTimelineGolden' -count=1 -v ./internal/sim)
gsmoke_out=$(go test -run 'TestEntryPointsBuildAndRun/(lumos-sim-gossip|examples)/topologystudy' -count=1 -v .)
for gate in \
	"TestGossipDeterminismAcrossWorkers:$gossip_out" \
	"TestGossipCompleteMatchesStarSync:$gossip_out" \
	"TestPreFleetTimelineGolden:$star_out" \
	"TestEntryPointsBuildAndRun/lumos-sim-gossip:$gsmoke_out" \
	"TestEntryPointsBuildAndRun/examples/topologystudy:$gsmoke_out"; do
	name=${gate%%:*}
	out=${gate#*:}
	if ! grep -q -- "--- PASS: $name" <<<"$out"; then
		echo "gossip gate $name did not pass:" >&2
		echo "$out" >&2
		exit 1
	fi
done

# Serving-loop gates, re-run by name so a renamed or skipped guard fails
# loudly: the checkpoint/snapshot corruption tables (corrupt files must fail
# with bounded allocation), the hot-swap race suite, and the CLI-level
# train → publish → serve → query → republish round trip.
codec_out=$(go test -run 'TestLoadParamsCorruptLengthFields|TestLoadParamsTruncation' -count=1 -v ./internal/nn)
snap_out=$(go test -run 'TestSnapshotCorruption|TestSnapshotTruncation' -count=1 -v ./internal/snapshot)
swap_out=$(go test -race -run 'TestServeHotSwapRace' -count=1 -v ./internal/serve)
e2e_out=$(go test -run 'TestServePublishServeQueryE2E' -count=1 -v .)
for gate in \
	"TestLoadParamsCorruptLengthFields:$codec_out" \
	"TestLoadParamsTruncation:$codec_out" \
	"TestSnapshotCorruption:$snap_out" \
	"TestSnapshotTruncation:$snap_out" \
	"TestServeHotSwapRace:$swap_out" \
	"TestServePublishServeQueryE2E:$e2e_out"; do
	name=${gate%%:*}
	out=${gate#*:}
	if ! grep -q -- "--- PASS: $name" <<<"$out"; then
		echo "serving-loop gate $name did not pass:" >&2
		echo "$out" >&2
		exit 1
	fi
done

# Decoder fuzz gates: the decoders of files a replica, trainer or simulator
# reads from disk (snapshot.Decode — raw and with a resealed checksum, so
# the post-checksum path is reached — nn.LoadParams, the topology and fleet
# trace readers), each fuzzed by name for a short fixed time on top of its
# seed corpus and the regressions in testdata/fuzz. The snapshot seeds are
# ~80 KB encodings, and minimizing each new interesting input byte by byte
# would eat the whole budget, so minimization is capped.
for target in "FuzzSnapshotDecode:./internal/snapshot" "FuzzSnapshotDecodeSealed:./internal/snapshot" \
	"FuzzLoadParams:./internal/nn" "FuzzTopologyRead:./internal/topo" "FuzzFleetTrace:./internal/fleet"; do
	name=${target%%:*}
	pkg=${target#*:}
	# `go test -fuzz` exits 0 when no target matches, so also require the
	# fuzzer's progress line.
	if ! fuzz_out=$(go test -run '^$' -fuzz "^$name\$" -fuzztime 10s -fuzzminimizetime 1s "$pkg" 2>&1) ||
		! grep -q "^fuzz: elapsed:" <<<"$fuzz_out"; then
		echo "fuzz gate $name failed:" >&2
		echo "$fuzz_out" >&2
		exit 1
	fi
done

# Report gates: the analyzer/diff/record unit suites by name (critical-path
# attribution under the race detector, the e2e straggler-blame acceptance
# check, the diff identity and doctored-regression tests, and the
# record round trip), plus the lumos-report smoke rows, plus a live CLI
# round trip — record a tiny run, render it, self-diff (must exit 0), then
# doctor the copy's final metric and wall-clock and require a nonzero exit.
report_out=$(go test -race -run 'TestCriticalPath|TestAnalyze|TestE2EStragglerBlameMatchesSlowestDevice|TestDiffSelfIsClean|TestDiffCatchesRegression|TestRunRecordRoundTrip|TestLoadTruncatedTail' -count=1 -v ./internal/report)
rsmoke_out=$(go test -run 'TestEntryPointsBuildAndRun/lumos-report-(run|diff|trace)' -count=1 -v .)
for gate in \
	"TestCriticalPathSyncContended:$report_out" \
	"TestCriticalPathAsyncQuorum:$report_out" \
	"TestCriticalPathGossipDelta:$report_out" \
	"TestAnalyzeUtilization:$report_out" \
	"TestE2EStragglerBlameMatchesSlowestDevice:$report_out" \
	"TestDiffSelfIsClean:$report_out" \
	"TestDiffCatchesRegression:$report_out" \
	"TestRunRecordRoundTrip:$report_out" \
	"TestLoadTruncatedTail:$report_out" \
	"TestEntryPointsBuildAndRun/lumos-report-run:$rsmoke_out" \
	"TestEntryPointsBuildAndRun/lumos-report-diff:$rsmoke_out" \
	"TestEntryPointsBuildAndRun/lumos-report-trace:$rsmoke_out"; do
	name=${gate%%:*}
	out=${gate#*:}
	if ! grep -q -- "--- PASS: $name" <<<"$out"; then
		echo "report gate $name did not pass:" >&2
		echo "$out" >&2
		exit 1
	fi
done

recdir=$(mktemp -d)
trap 'rm -rf "$recdir"' EXIT
go run ./cmd/lumos-sim -dataset facebook -scale 0.005 -rounds 3 -mcmc 10 \
	-fleet zipf -run-out "$recdir/base" >/dev/null
go run ./cmd/lumos-report run "$recdir/base" >/dev/null
go run ./cmd/lumos-report diff "$recdir/base" "$recdir/base" >/dev/null
cp -r "$recdir/base" "$recdir/doctored"
# Perturb the doctored record past both the metric and wall-clock
# thresholds; the diff gate must refuse it.
mkdir -p "$recdir/doctor"
cat >"$recdir/doctor/main.go" <<'EOF'
package main

import (
	"encoding/json"
	"os"
)

func main() {
	path := os.Args[1]
	raw, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		panic(err)
	}
	m["final_metric"] = m["final_metric"].(float64) - 0.5
	m["wall_clock"] = m["wall_clock"].(float64) * 2
	out, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		panic(err)
	}
}
EOF
go run "$recdir/doctor/main.go" "$recdir/doctored/manifest.json"
if go run ./cmd/lumos-report diff "$recdir/base" "$recdir/doctored" >/dev/null 2>&1; then
	echo "report gate: doctored record passed the diff gate" >&2
	exit 1
fi

go test -race -short ./internal/... ./...
