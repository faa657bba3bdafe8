package main

// metricDef describes one metric of the result line: its unit, which
// direction is better, and what it means or should move. BENCHMARK.json
// lists the same names and units; TestCatalogMatchesBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	name, unit, better string
	// about says what the metric measures on each workload (end to
	// end) or which end-to-end metric on which workload it should move
	// (per layer).
	about string
}

// endToEnd metrics are reported by untraced runs, on every workload.
// Each workload has one unit operation: an Allocate (plan-paper), a
// request from TuneItem to WaitForItem (access), or an item
// transmission received by a verifier (fanout).
//
// Tails (latency_tail_ms, alloc_p99_ms, access_p99_s, lateness_p99_us)
// and the serving stretches are printed and written to the report file
// but stay off the result line: on a shared two-core host, stalls of a
// few milliseconds move the fanout p99 by half between runs, and a
// result-line metric needs one bound that suits every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower",
		"median over the run's set-ups of input generation, allocation, program build, Serve and subscriber attach, up to the first timed operation"},
	{"latency_p50_ms", "ms", "lower",
		"median wall time of the unit operation: alloc_p50_ms on plan-paper, the access time in wall ms on access, lateness_p50_us/1000 on fanout"},
	{"gap_mean", "ratio", "lower",
		"allocation cost over its lower bound: mean over the allocated instances on plan-paper, the served allocation on access and fanout"},
	{"ops_per_cpu_s", "1/s", "higher",
		"unit operations per process CPU second: allocations on plan-paper, requests on access, frames delivered to subscribers (deliveries_per_cpu_s) on fanout"},
}

// perLayer metrics are reported by traced runs, on every workload. A
// layer a workload does not exercise reads zero; time-valued layer
// metrics that exist on only some workloads go to the run's report
// file and human output instead (see layerOnly).
var perLayer = []metricDef{
	{"workload.generate_ms", "ms", "lower", "setup_s on every workload"},
	{"core.drp_us_p50", "us", "lower", "latency_p50_ms on plan-paper, where DRP is a visible share of each Allocate"},
	{"core.drp_gap_mean", "ratio", "lower", "a better DRP start lowers core.cds_moves_mean and latency_p50_ms on plan-paper"},
	{"core.cds_us_p50", "us", "lower", "latency_p50_ms and alloc_p99_ms on plan-paper; access and fanout only through setup_s"},
	{"core.cds_moves_mean", "count", "lower", "latency_p50_ms on plan-paper"},
	{"core.gap_max", "ratio", "lower", "gap_mean on plan-paper: the worst instance of the run"},
	{"netcast.tune_miss_ratio", "ratio", "lower", "access_stretch and latency_p50_ms on access; nothing on fanout"},
	{"netcast.client_receptions_per_request", "ratio", "lower", "access_stretch and ops_per_cpu_s on access; nothing on fanout"},
	{"netcast.lag_frames_p50", "frames", "lower", "ops_per_cpu_s and lateness_p99_us on fanout"},
	{"netcast.lag_frames_p99", "frames", "lower", "ops_per_cpu_s and lateness_p99_us on fanout"},
	{"netcast.lag_frames_mean", "frames", "lower", "exact mean of the same histogram, whose 64-frame bins blur the quantiles at low lag"},
	{"netcast.frames_per_batch", "ratio", "higher", "larger batches raise ops_per_cpu_s and lateness_p99_us on fanout"},
	{"netcast.server_cpu_share", "ratio", "lower", "ops_per_cpu_s on fanout; no change predicted on access"},
	{"netcast.client_cpu_share", "ratio", "lower", "ops_per_cpu_s on access"},
	{"netcast.completeness_min", "ratio", "higher", "failed on fanout: frames received over frames owed, worst subscriber"},
	{"netcast.resyncs", "count", "lower", "failed on access and fanout"},
	{"netcast.lag_drops", "count", "lower", "failed on access and fanout"},
	{"netcast.handshake_failures", "count", "lower", "failed on access"},
	{"costmon.regret_pct_mean", "%", "lower", "cross-checks access_stretch on access: the server's realized vs predicted first-delivery wait"},
	{"costmon.waits_recorded", "count", "higher", "the sample count behind costmon.regret_pct_mean on access"},
	{"core.cpu_share", "ratio", "lower", "ops_per_cpu_s on plan-paper (profiled CPU under the core label; on plan-paper only the traced half of the operations carries it)"},
	{"trace.overhead_pct", "%", "lower", "the traced half's unit-operation result against the untraced half of the same run"},
	{"runtime.heap_peak_mb", "MB", "lower", "setup_s everywhere, ops_per_cpu_s on fanout"},
	{"runtime.gc_cycles", "count", "lower", "ops_per_cpu_s on fanout, latency_tail_ms everywhere"},
	{"runtime.goroutines_peak", "count", "lower", "ops_per_cpu_s on fanout, setup_s everywhere"},
}

// layerOnly are per-layer figures that exist on some workloads only.
// They are printed and written to the report file but stay off the
// result line, whose metrics every workload must measure.
var layerOnly = []metricDef{
	{"broadcast.build_ms", "ms", "lower", "setup_s on access and fanout"},
	{"netcast.serve_ms", "ms", "lower", "setup_s on access and fanout"},
	{"core.cds_ns_per_move", "ns", "lower", "latency_p50_ms on plan-paper"},
	{"broadcast.predicted_wb_s", "s", "lower", "Eq. 4 W_b of the produced or served allocation: the floor of access_p50_s"},
	{"netcast.tune_us_p50", "us", "lower", "access_stretch and access_p99_s on access"},
	{"netcast.tune_us_p99", "us", "lower", "access_stretch and access_p99_s on access"},
	{"netcast.begin_lateness_us_p50", "us", "lower", "latency_p50_ms on fanout, lateness_* on access"},
	{"netcast.begin_lateness_us_p99", "us", "lower", "lateness_p99_us on fanout and access"},
	{"netcast.server_cpu_ns_per_delivery", "ns", "lower", "ops_per_cpu_s on fanout"},
	{"netcast.client_cpu_us_per_request", "us", "lower", "access_stretch and ops_per_cpu_s on access"},
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}
