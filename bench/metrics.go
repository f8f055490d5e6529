package main

// metricDef is one named metric of BENCHMARK.json. bound is the share
// of the parent commit's median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics have
// none. TestBenchmarkJSONMatchesCatalogue keeps this table and
// BENCHMARK.json identical.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the scheduler, the compiler or
// the daemon sees. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.15},
	{"lat_p50_us", "us", "lower", 0.15},
	{"lat_p99_us", "us", "lower", 0.15},
	{"peak_rss_mib", "MiB", "lower", 0.15},
	// The quality metrics are exact: each workload's loop set is the
	// same on every seed, so they read the same on every run of a
	// commit, and any loss is a regression.
	{"ii_match_pct", "%", "higher", 0},
	{"ii_over_mii", "ratio", "lower", 0},
	{"copies_per_loop", "count", "lower", 0},
	{"regs_per_loop", "count", "lower", 0},
}

// perLayer is the ledger of the traced run. Every workload reports
// every entry; a layer the workload never enters reads 0.
var perLayer = []metricDef{
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},

	{name: "mii.us_per_loop", unit: "us", better: "lower"},
	{name: "order.us_per_loop", unit: "us", better: "lower"},
	{name: "assign.us_per_loop", unit: "us", better: "lower"},
	{name: "assign.evictions_per_loop", unit: "count", better: "lower"},
	{name: "assign.ok_ratio", unit: "ratio", better: "higher"},
	{name: "sched.us_per_loop", unit: "us", better: "lower"},
	{name: "sched.displacements_per_loop", unit: "count", better: "lower"},
	{name: "sched.ok_ratio", unit: "ratio", better: "higher"},
	{name: "pipeline.ii_tries_per_loop", unit: "count", better: "lower"},
	{name: "verify.us_per_loop", unit: "us", better: "lower"},
	{name: "pipeline.unattributed_frac", unit: "ratio", better: "lower"},

	{name: "frontend.us_per_tu", unit: "us", better: "lower"},
	{name: "lint.us_per_loop", unit: "us", better: "lower"},
	{name: "pipeline.us_per_loop", unit: "us", better: "lower"},
	{name: "stagesched.us_per_loop", unit: "us", better: "lower"},
	{name: "stagesched.moved_per_loop", unit: "count", better: "higher"},
	{name: "regalloc.us_per_loop", unit: "us", better: "lower"},
	{name: "emit.us_per_loop", unit: "us", better: "lower"},
	{name: "emit.bytes_per_loop", unit: "bytes", better: "lower"},
	{name: "compile.busy_frac", unit: "ratio", better: "higher"},
	{name: "compile.unattributed_frac", unit: "ratio", better: "lower"},

	{name: "client.encode_us", unit: "us", better: "lower"},
	{name: "server.decode_us", unit: "us", better: "lower"},
	{name: "ddgio.parse_us", unit: "us", better: "lower"},
	{name: "cache.key_us", unit: "us", better: "lower"},
	{name: "cache.get_us", unit: "us", better: "lower"},
	{name: "pipeline.us_per_req", unit: "us", better: "lower"},
	{name: "verify.us_per_req", unit: "us", better: "lower"},
	{name: "server.encode_us", unit: "us", better: "lower"},
	{name: "client.decode_us", unit: "us", better: "lower"},
	{name: "server.rtt_us", unit: "us", better: "lower"},
	{name: "server.unattributed_us", unit: "us", better: "lower"},
	{name: "cache.hit_frac", unit: "ratio", better: "higher"},
	{name: "cache.evictions", unit: "count", better: "lower"},
	{name: "server.rejected", unit: "count", better: "lower"},
	{name: "server.req_bytes", unit: "bytes", better: "lower"},
	{name: "server.resp_bytes", unit: "bytes", better: "lower"},
}

// metric is one measured value with the sample basis printed beside it.
type metric struct {
	value float64
	note  string
}
