package main

// layerDef is one per-layer metric. Times are medians per call of the
// named public function, from the traced run's spans; counts are
// normalized work counters. The go.* metrics are the Go runtime's costs
// of the untraced loop. exact marks a value that must repeat exactly
// for a given workload and seed.
type layerDef struct {
	name, unit, better string
	exact              bool
	value              func(a *analysis) float64
}

// layerDefs lists the per-layer metrics in print order.
var layerDefs = []layerDef{
	{"firmware.generate_ms", "ms", "lower", false, spanMedian("firmware.Generate")},
	{"core.preprocess_ms", "ms", "lower", false, spanMedian("core.Preprocess")},
	{"core.randomize_ms", "ms", "lower", false, spanMedian("core.Randomize")},
	{"staticverify.cfg_ms", "ms", "lower", false, spanMedian("staticverify.NewBase/cfg")},
	{"vsa.analyze_ms", "ms", "lower", false, func(a *analysis) float64 {
		return spanMedian("staticverify.NewBase/vsa")(a) - spanMedian("staticverify.NewBase/cfg")(a)
	}},
	{"staticverify.gadget_audit_ms", "ms", "lower", false, spanMedian("staticverify.AuditGadgets")},
	{"staticverify.verify_ms", "ms", "lower", false, spanMedian("staticverify.Verify")},
	{"staticverify.base_verify_ms", "ms", "lower", false, spanMedian("staticverify.Base.Verify")},
	{"armory.load_ms", "ms", "lower", false, spanMedian("armory.load")},
	{"armory.ledger_ms", "ms", "lower", false, spanMedian("armory.ledger")},
	{"armory.sign_ms", "ms", "lower", false, spanMedian("armory.sign")},
	{"armory.service_ms_p50", "ms", "lower", false, spanMedian("armory.Service.Randomize")},
	{"armory.http_ms_p50", "ms", "lower", false, selfMedian("armory.Client.Randomize")},
	{"attack.payload_ms", "ms", "lower", false, spanMedian("attack.payload")},
	{"attack.synth_ms", "ms", "lower", false, spanMedian("attack.Synthesize")},
	{"scenario.emulation_ms", "ms", "lower", false, selfMedian("scenario.Run")},
	{"scenario.encode_ms", "ms", "lower", false, spanMedian("scenario.AppendTrace")},
	{"scengen.generate_ms", "ms", "lower", false, spanMedian("scengen.Generate")},
	{"scengen.check_ms", "ms", "lower", false, spanMedian("scengen.CheckAll")},
	{"netlink.codec_ns", "ns", "lower", false, func(a *analysis) float64 {
		return spanMedian("netlink.codec")(a) * 1e6 / codecReps
	}},
	{"board.run_ms_per_sim_s", "ms/sim_s", "lower", false, ratio("flight.run_ns", "flight.sim_ns", 1e3)},
	{"gcs.feed_ns_per_byte", "ns/B", "lower", false, ratio("flight.feed_ns", "flight.bytes", 1)},
	{"board.sim_speedup", "sim_s/s", "higher", false, ratio("speed.sim_ns", "speed.host_ns", 1)},
	{"trace.overhead_share", "ratio", "lower", false, func(a *analysis) float64 { return a.overhead }},
	{"go.cpu_ms_per_item", "ms", "lower", false, ratio("go.cpu_ns", "go.items", 1e-6)},
	{"go.allocs_per_item", "count", "lower", false, ratio("go.allocs", "go.items", 1)},
	{"go.alloc_mib_per_item", "MiB", "lower", false, ratio("go.alloc_bytes", "go.items", 1.0/(1<<20))},
	{"go.max_rss_mib", "MiB", "lower", false, ratio("go.max_rss_mib", "", 1)},

	{"avr.block_execs_per_sim_s", "1/sim_s", "higher", true, ratio("flight.block_execs", "flight.sim_ns", 1e9)},
	{"avr.interp_steps_per_sim_s", "1/sim_s", "lower", true, ratio("flight.interp_steps", "flight.sim_ns", 1e9)},
	{"avr.translations_per_sim_s", "1/sim_s", "lower", true, ratio("flight.translations", "flight.sim_ns", 1e9)},
	{"avr.invalidations_per_sim_s", "1/sim_s", "lower", true, ratio("flight.invalidations", "flight.sim_ns", 1e9)},
	{"gcs.frames_per_sim_s", "1/sim_s", "higher", true, ratio("flight.frames", "flight.sim_ns", 1e9)},
	{"gcs.downlink_bytes_per_sim_s", "B/sim_s", "higher", true, ratio("flight.bytes", "flight.sim_ns", 1e9)},
	{"board.master_epochs", "count", "lower", true, ratio("scenario.epochs", "scenario.items", 1)},
	{"board.reflashes", "count", "lower", true, ratio("scenario.reflashes", "scenario.items", 1)},
	{"scenario.records", "count", "lower", true, ratio("scenario.records", "scenario.items", 1)},
	{"scenario.trace_bytes", "B", "lower", true, ratio("scenario.trace_bytes", "scenario.items", 1)},
	{"attack.synth_attempts", "count", "lower", true, ratio("synth.attempts", "synth.calls", 1)},
	{"vsa.sites", "count", "higher", true, ratio("vsa.sites", "vsa.bases", 1)},
	{"vsa.resolved_sites", "count", "higher", true, ratio("vsa.resolved", "vsa.bases", 1)},
	{"staticverify.fast_verify_share", "ratio", "higher", true, share("verify.fast", "verify.fallback")},
	{"armory.cache_hit_share", "ratio", "higher", true, share("armory.hits", "armory.misses")},
	{"armory.reissue_share", "ratio", "lower", true, ratio("armory.reissues", "armory.completed", 1)},
	{"armory.ledger_conflicts", "count", "lower", true, ratio("armory.conflicts", "", 1)},
	{"armory.response_bytes", "B", "lower", true, ratio("armory.response_bytes", "armory.responses", 1)},
	{"netlink.datagrams_per_sim_s", "1/sim_s", "higher", false, ratio("netlink.datagrams_in", "netlink.sim_ns", 1e9)},
	{"netlink.bytes_per_sim_s", "B/sim_s", "higher", false, ratio("netlink.bytes_in", "netlink.sim_ns", 1e9)},
	{"netlink.seq_gaps", "count", "lower", false, ratio("netlink.seq_gaps", "", 1)},
	{"netlink.queue_dropped", "count", "lower", false, ratio("netlink.queue_dropped", "", 1)},
	{"netlink.crc_rejects", "count", "lower", false, ratio("netlink.crc_rejects", "", 1)},
	{"netlink.rehellos", "count", "lower", false, ratio("netlink.rehellos", "", 1)},
	{"scengen.heavy_share", "ratio", "lower", true, ratio("scengen.heavy", "scengen.specs", 1)},
	{"scengen.synth_share", "ratio", "lower", true, ratio("scengen.synth", "scengen.specs", 1)},
}

// layerMetrics evaluates every layerDef on a trace.
func layerMetrics(a *analysis) map[string]metric {
	out := make(map[string]metric, len(layerDefs))
	for _, d := range layerDefs {
		out[d.name] = metric{orZero(d.value(a)), d.unit}
	}
	return out
}

// spanMedian is the median duration (ms) of the spans named name.
func spanMedian(name string) func(*analysis) float64 {
	return func(a *analysis) float64 { return orZero(median(a.durations(name))) }
}

// selfMedian is the median self time (ms) of the spans named name.
func selfMedian(name string) func(*analysis) float64 {
	return func(a *analysis) float64 { return orZero(median(a.selfTimes(name))) }
}

// ratio is scale*num/den over the counters; an empty den means 1.
func ratio(num, den string, scale float64) func(*analysis) float64 {
	return func(a *analysis) float64 {
		d := 1.0
		if den != "" {
			d = a.counts[den]
		}
		if d == 0 {
			return 0
		}
		return scale * a.counts[num] / d
	}
}

// share is yes/(yes+no) over the counters.
func share(yes, no string) func(*analysis) float64 {
	return func(a *analysis) float64 {
		t := a.counts[yes] + a.counts[no]
		if t == 0 {
			return 0
		}
		return a.counts[yes] / t
	}
}

// orZero maps the NaN of an empty median to 0.
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
