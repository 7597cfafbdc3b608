package main

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// metrics, except end-to-end ones that are not gated (TestBenchmarkJSONMatches
// keeps the two in step).
type metricDef struct {
	name, unit string
	// printedOnly marks an end-to-end metric that runs print and record but
	// leave out of their result line, so the benchmark does not gate it:
	// it does not apply to every workload, or its spread from seed to seed
	// is wider than the largest bound allowed.
	printedOnly bool
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports every gated one, each result line holds them all, and the
// operation behind ops_per_s and op_p50_ms is the workload's own: a
// training epoch (train), a committed round (sim-*) or a request (serve).
// README.md has the table and says why three are printed only.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "op_p50_ms", unit: "ms"},
	{name: "model_time_s", unit: "s"},
	{name: "comm_mb", unit: "MB"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "final_metric", unit: "ratio", printedOnly: true},
	{name: "time_to_target_s", unit: "s", printedOnly: true},
	{name: "serve_p99_ms", unit: "ms", printedOnly: true},
}

// perLayerMetrics are measured by the traced run, on every workload; a
// layer the workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{name: "graph.load_s", unit: "s"},
	{name: "balance.s", unit: "s"},
	{name: "balance.comparisons", unit: "count"},
	{name: "balance.ots", unit: "count"},
	{name: "balance.smc_mb", unit: "MB"},
	{name: "balance.accept_ratio", unit: "ratio"},
	{name: "balance.max_workload", unit: "count"},
	{name: "core.new_system_s", unit: "s"},
	{name: "core.step_ms.p50", unit: "ms"},
	{name: "core.step_ms.p90", unit: "ms"},
	{name: "core.step_allocs", unit: "count"},
	{name: "core.step_alloc_kb", unit: "KB"},
	{name: "core.step_cpu_util", unit: "ratio"},
	{name: "core.forward_ms", unit: "ms"},
	{name: "core.eval_ms", unit: "ms"},
	{name: "sim.round_host_ms.p50", unit: "ms"},
	{name: "sim.round_host_ms.p90", unit: "ms"},
	{name: "sim.cpu_util", unit: "ratio"},
	{name: "sim.participants_mean", unit: "count"},
	{name: "sim.round_virtual_s.p50", unit: "s"},
	{name: "sim.stale_applied", unit: "count"},
	{name: "sim.dropped", unit: "count"},
	{name: "fleet.agg_wait_s.mean", unit: "s"},
	{name: "fleet.link_wait_s.mean", unit: "s"},
	{name: "snapshot.capture_ms", unit: "ms"},
	{name: "snapshot.encode_ms", unit: "ms"},
	{name: "snapshot.bytes", unit: "bytes"},
	{name: "snapshot.publish_ms", unit: "ms"},
	{name: "snapshot.read_ms", unit: "ms"},
	{name: "serve.bundle_ms", unit: "ms"},
	{name: "serve.bundle_classify_us", unit: "us"},
	{name: "serve.server_classify_us", unit: "us"},
	{name: "serve.swap_us", unit: "us"},
	{name: "serve.batch_size.mean", unit: "count"},
	{name: "serve.queue_depth.max", unit: "count"},
	{name: "serve.gen_late_ms.max", unit: "ms"},
	{name: "cpu.tensor.AddInPlace", unit: "ratio"},
	{name: "cpu.tensor.matmul", unit: "ratio"},
	{name: "cpu.smc", unit: "ratio"},
	{name: "cpu.balance", unit: "ratio"},
	{name: "cpu.autodiff", unit: "ratio"},
	{name: "cpu.core", unit: "ratio"},
	{name: "cpu.sim", unit: "ratio"},
	{name: "cpu.gc", unit: "ratio"},
	{name: "cpu.http_json", unit: "ratio"},
	{name: "cpu.serve", unit: "ratio"},
	{name: "traced.ops_per_s", unit: "1/s"},
	{name: "traced.op_p50_ms", unit: "ms"},
}

// lookup returns name's definition; an unlisted name is a bug in the
// benchmark.
func lookup(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	panic("lumosbench: unlisted metric " + name)
}
