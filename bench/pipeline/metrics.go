package main

// metricDef is one row of the benchmark's metric table. The end-to-end
// and per-layer tables here are the ones BENCHMARK.json declares; a test
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Times are in reference seconds (hostspeed.go); they are
// medians over the timed iterations, or over the set-ups for setup_s.
// peak_rss_mb is the upper quartile of the iterations' own peaks. The time
// bounds stay wide because normalization still leaves run-to-run spreads
// of 2-9%, and up to 16% in the worst hour seen, on the 2-vCPU hosts this
// benchmark was built on (bench/README.md); set-up gets the widest bound
// the benchmark allows.
var endToEnd = []metricDef{
	{"pipeline_s", "s", "lower", 0.25},
	{"refs_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// errorRate is failed over attempted iterations. It is printed and kept
// in the ledger, where any increase is a regression; BENCHMARK.json
// carries it as the result's attempted/failed counts instead, because a
// healthy run reads exactly zero.
var errorRate = metricDef{"error_rate", "ratio", "lower", 0}

// iterationRSS, wallSeconds and kernelMs explain the end-to-end metrics:
// each timed iteration's peak RSS, and an untraced iteration's wall
// seconds and the mean reference-kernel time sampled during it. They are
// printed and kept in the ledger, without a bound.
var (
	iterationRSS = metricDef{"iteration_peak_rss_mb", "MB", "lower", 0}
	wallSeconds  = metricDef{"pipeline_wall_s", "s", "lower", 0}
	kernelMs     = metricDef{"host.kernel_ms", "ms", "lower", 0}
)

// perLayer are the traced run's metrics: per timed iteration (medians
// over the traced iterations) unless noted. A layer the workload does not
// call reads zero.
var perLayer = []metricDef{
	{"sim.replay_s", "s", "lower", 0},
	{"sim.traced_mips", "MIPS", "higher", 0},
	{"sim.trace_emit_s", "s", "lower", 0},   // probe: traced minus untraced replay
	{"sim.boot_restore_s", "s", "lower", 0}, // probe: emu.New + Boot + Restore
	{"sim.alloc_mb", "MB", "lower", 0},
	{"validate.correlate_s", "s", "lower", 0},
	{"dtrace.encode_s", "s", "lower", 0},
	{"dtrace.encode_ns_per_ref", "ns/ref", "lower", 0},
	{"dtrace.bytes_per_ref", "B/ref", "lower", 0},
	{"dtrace.decode_s", "s", "lower", 0},
	{"dtrace.decode_ns_per_ref", "ns/ref", "lower", 0},
	{"sweep.lru56_s", "s", "lower", 0},
	{"sweep.hier16_s", "s", "lower", 0},
	{"sweep.lru_wb_s", "s", "lower", 0},
	{"sweep.fifo_wt_s", "s", "lower", 0},
	{"sweep.plru_wb_s", "s", "lower", 0},
	{"sweep.opt_s", "s", "lower", 0},
	{"sweep.incl_wb_s", "s", "lower", 0},
	{"sweep.excl_wb_s", "s", "lower", 0},
	{"sweep.ns_per_ref_config", "ns/ref/config", "lower", 0},
	{"sweep.alloc_mb", "MB", "lower", 0},
	{"report.s", "s", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_s", "s", "lower", 0},
	{"sim.instructions", "count", "lower", 0},
	{"sim.refs", "count", "lower", 0},
	{"sweep.units", "count", "lower", 0},
	{"sweep.fallback_configs", "count", "lower", 0},
	{"sweep.shared_l1_groups", "count", "higher", 0},
	{"sweep.fused_hierarchies", "count", "lower", 0},
}

// sweepPlans are the sweep spans whose self times become
// sweep.<plan>_s; their sum over references times configurations is
// sweep.ns_per_ref_config.
var sweepPlans = []string{"lru56", "hier16", "lru_wb", "fifo_wt", "plru_wb", "opt", "incl_wb", "excl_wb"}

const mb = 1 << 20

// layerValues turns one traced iteration's span aggregates and counts
// into per-layer metric values. Probe metrics are filled in separately.
func layerValues(layers map[string]*layerTime, counts map[string]float64) map[string]float64 {
	lt := func(name string) layerTime {
		if l, ok := layers[name]; ok {
			return *l
		}
		return layerTime{}
	}
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	replay, encode, decode := lt("sim.replay"), lt("dtrace.encode"), lt("dtrace.decode")
	v := map[string]float64{
		"sim.replay_s":             replay.dur,
		"sim.traced_mips":          per(counts["sim.instructions"], replay.dur) / 1e6,
		"sim.alloc_mb":             replay.alloc / mb,
		"validate.correlate_s":     lt("validate.correlate").dur,
		"dtrace.encode_s":          encode.dur,
		"dtrace.encode_ns_per_ref": per(encode.dur*1e9, counts["dtrace.encode_refs"]),
		"dtrace.bytes_per_ref":     per(counts["dtrace.bytes"], counts["dtrace.encode_refs"]),
		"dtrace.decode_s":          decode.dur,
		"dtrace.decode_ns_per_ref": per(decode.dur*1e9, counts["dtrace.decode_refs"]),
		"report.s":                 lt("report").dur,
	}
	var sweepSelf, sweepAlloc float64
	for _, p := range sweepPlans {
		s := lt("sweep." + p)
		v["sweep."+p+"_s"] = s.self
		sweepSelf += s.self
		sweepAlloc += s.alloc
	}
	v["sweep.ns_per_ref_config"] = per(sweepSelf*1e9, counts["sweep.ref_configs"])
	v["sweep.alloc_mb"] = sweepAlloc / mb
	for _, name := range []string{"go.gc_cycles", "go.gc_pause_s", "sim.instructions", "sim.refs",
		"sweep.units", "sweep.fallback_configs", "sweep.shared_l1_groups", "sweep.fused_hierarchies"} {
		v[name] = counts[name]
	}
	return v
}
