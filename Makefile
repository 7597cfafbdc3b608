# Developer entry points. `make ci` is the gate PRs must keep green.

.PHONY: build test race bench bench-sim bench-serve ci

build:
	go build ./...

test:
	go test ./...

# Race hygiene for the device-parallel training engine: the worker pool,
# shard views, and gradient reduction all run under the race detector.
race:
	go test -race -short ./internal/... ./...

# Epoch + kernel benchmarks: BenchmarkEpochParallel reports its speedup over
# the serial baseline as a custom metric; -benchmem tracks the tape engine's
# B/op and allocs/op (the allocation-regression budget lives in
# internal/core/alloc_test.go and runs under `make ci`). The production
# kernels (…/blocked, …/fused) are benchmarked in the root package; their
# test-oracle twins (…/reference, the scalar loops, in internal/tensor and
# …/unfused, the unfused aggregation chain, in internal/autodiff) run from
# those packages on the same inputs. The stream is piped through
# scripts/benchjson, which echoes it and records the results with run
# metadata in BENCH_epoch.json (same convention as BENCH_serve.json).
bench:
	go test -run xxx -benchtime 20x -benchmem \
		-bench 'BenchmarkEpoch|BenchmarkForestEpoch|BenchmarkMatMul|BenchmarkCSRAggregate' \
		. ./internal/tensor ./internal/autodiff \
		| go run ./scripts/benchjson -out BENCH_epoch.json

# Simulator scaling curve: host time per committed round for star sync and
# ring:2 gossip at ~100, ~330 and ~820 devices (one shard per device), five
# runs of ten rounds each, recorded in BENCH_sim.json.
bench-sim:
	go test -run xxx -benchtime 10x -count 5 -bench 'BenchmarkSimRound' . \
		| go run ./scripts/benchjson -out BENCH_sim.json

# Serving benchmark: train, publish a snapshot, replay zipf query traffic
# against a live replica, hot-swap to a republished model under load, and
# record p50/p99 latency + QPS in BENCH_serve.json.
bench-serve:
	go run ./cmd/lumos-bench -serve -fbscale 0.02 -epochs 8 -mcmc 30 \
		-serve-queries 4000 -serve-conc 8 -serve-out BENCH_serve.json

ci:
	./scripts/ci.sh
