package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists the
// same names and units; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the numbers a user sees, reported with -trace 0 by every
// workload. The operation is one Fig. 4 sweep (paper-sweep), one scale-10k
// run (scale10k, scale10k-shard2) or one hot-key request (serve-mixed).
// The times are stated at the host speed ref.go defines.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_norm_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's numbers, reported with -trace 1. A workload
// that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{"scenario.canonical_us", "us"},
	{"experiment.compile_us", "us"},
	{"deploy.gen_ms", "ms"},
	{"radio.compile_ms", "ms"},
	{"radio.csr_edges", "count"},
	{"radio.broadcasts", "count"},
	{"radio.delivered", "count"},
	{"radio.dropped_sleeping", "count"},
	{"radio.useful_frac", "frac"},
	{"node.build_ms", "ms"},
	{"node.run_ms", "ms"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.shard.windows", "count"},
	{"sim.shard.imbalance", "ratio"},
	{"sim.shard.slowdown", "ratio"},
	{"metrics.collect_ms", "ms"},
	{"runner.jobs", "count"},
	{"runner.busy_frac", "frac"},
	{"serve.handler_hit_us", "us"},
	{"serve.handler_miss_ms", "ms"},
	{"serve.handler_submit_ms", "ms"},
	{"serve.http_us", "us"},
	{"serve.hit_frac", "frac"},
	{"serve.sims_per_miss", "ratio"},
	{"serve.collapsed", "count"},
	{"serve.rejected", "count"},
	{"serve.rps", "1/s"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p99_ms", "ms"},
	{"serve.job_p50_ms", "ms"},
	{"serve.job_p99_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.journal_append_ms", "ms"},
	{"store.open_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.cover_frac", "frac"},
	{"paper.pas_sas_ratio_5s", "ratio"},
	{"host.ref_pass_ms", "ms"},
	{"raw.setup_s", "s"},
	{"raw.op_p50_ms", "ms"},
}

// unitOf returns the unit of the named metric in defs.
func unitOf(defs []metricDef, name string) (string, bool) {
	for _, d := range defs {
		if d.name == name {
			return d.unit, true
		}
	}
	return "", false
}
