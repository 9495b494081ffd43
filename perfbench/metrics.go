package main

// metricDef names a reported metric and its unit. BENCHMARK.json lists the
// same names and units (TestBenchmarkJSONMatches keeps them in step).
type metricDef struct{ name, unit string }

// endToEndMetrics are what a run with --trace 0 reports: what a user of
// the serving stack sees. The p99 tails are printed in the report and
// reported by traced runs, but not gated (see perLayerMetrics).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"launches_per_s", "1/s"},
	{"launch_p50_us", "us"},
	{"ok_share", "share"},
	{"lc_slo_attained_share", "share"},
	{"graph_p50_ms", "ms"},
	{"cpu_us_per_launch", "us"},
	{"peak_heap_mb", "MiB"},
}

// perLayerMetrics are what a traced run (--trace 1) reports: one or more
// figures per layer of the stack, the tracing overhead and the self-time
// check.
var perLayerMetrics = []metricDef{
	// The p99 tails of the untraced half of a traced run. They are not
	// gated: on a small shared host they swing between runs by more than
	// any bound BENCHMARK.json may set (see README.md).
	{"launch_p99_us", "us"},
	{"lc_p99_us", "us"},
	{"graph_p99_ms", "ms"},
	// Replay throughput, on trace-replay (0 elsewhere). Not gated either:
	// it spread by 0.35 over ten seeds (see README.md).
	{"replay_launches_per_s", "1/s"},
	{"net.rtt_us_p50", "us"},
	{"net.self_us_p50", "us"},
	{"net.conns_accepted_per_klaunch", "count"},
	{"server.handler_us_p50", "us"},
	{"server.handler_us_p99", "us"},
	{"server.admission_wait_us_mean", "us"},
	{"server.admission_wait_us_p99", "us"},
	{"server.admission_batch_mean", "count"},
	{"server.loop_steps_per_launch", "count"},
	{"server.queue_full_share", "share"},
	{"server.shed_share", "share"},
	{"runtime.preemptions_per_launch", "count"},
	{"runtime.dispatches_per_launch", "count"},
	{"runtime.queue_wait_virtual_us_mean", "us"},
	{"gpu.ctas_per_launch", "count"},
	{"gpu.drains_per_launch", "count"},
	{"runtime.replay_ns_per_launch", "ns"},
	{"gateway.handler_us_p50", "us"},
	{"gateway.handler_us_p99", "us"},
	{"gateway.self_us_mean", "us"},
	{"gateway.retries_per_launch", "count"},
	{"model.parked_per_graph", "count"},
	{"model.evictions", "count"},
	{"trace.entries_per_launch", "count"},
	{"trace.evictions_per_launch", "count"},
	{"replay.records_per_launch", "count"},
	{"replay.dropped", "count"},
	{"replay.load_s", "s"},
	{"replay.setup_s", "s"},
	{"obs.scrape_us_p50", "us"},
	{"core.offline_s", "s"},
	{"go.allocs_per_launch", "count"},
	{"go.bytes_per_launch", "B"},
	{"go.gc_pause_us_p99", "us"},
	{"go.gc_cycles_per_klaunch", "count"},
	{"go.sched_latency_us_p99", "us"},
	{"gen.late_us_p99", "us"},
	{"self.client_us_per_launch", "us"},
	{"self.gateway_us_per_launch", "us"},
	{"self.server_us_per_launch", "us"},
	{"cpu.client_us_per_launch", "us"},
	{"cpu.server_us_per_launch", "us"},
	{"bench.untraced_launches_per_s", "1/s"},
	{"bench.traced_launches_per_s", "1/s"},
	{"bench.trace_overhead_share", "share"},
	{"bench.self_gap_share", "share"},
}

// unitOf finds a metric's unit; an unknown name is a bug in this package.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}
