package main

// perLayerNames lists every per-layer metric with its unit. Each traced
// run prints all of them; a layer a workload never enters reads 0.
var perLayerNames = []struct{ name, unit string }{
	{"core.build_s", "s"}, {"core.build_alloc_mb", "MB"}, {"core.step_s", "s"},
	{"core.step_calls", "count"}, {"core.ns_per_step", "ns"},
	{"sim.acquire_s", "s"}, {"sim.release_s", "s"}, {"sim.round_s", "s"},
	{"sim.route_self_s", "s"}, {"sim.route_ns_per_msg", "ns"}, {"sim.halt_scan_s", "s"},
	{"sim.msgs", "count"}, {"sim.rounds", "count"}, {"sim.polls", "count"},
	{"sim.step_per_poll", "fraction"},
	{"adversary.crashes_s", "s"}, {"adversary.filter_s", "s"}, {"adversary.orders", "count"},
	{"adversary.midsend_orders", "count"}, {"adversary.filter_evals", "count"},
	{"adversary.filter_keep_frac", "fraction"},
	{"trace.digest_s", "s"}, {"trace.digests", "count"},
	{"service.epoch_s", "s"}, {"service.core_s", "s"}, {"service.core_setup_s", "s"},
	{"service.bookkeeping_s", "s"}, {"service.live_view_s", "s"}, {"service.joins", "count"},
	{"service.recycled", "count"}, {"service.aborts", "count"},
	{"runtime.gc_cpu_frac", "fraction"}, {"runtime.gc_cycles_per_op", "count"},
	{"runtime.allocs_per_op", "count"},
	{"bench.whole_s", "s"}, {"bench.unattributed_s", "s"}, {"bench.trace_overhead_frac", "fraction"},
}

// selfRows are the per-layer rows whose values are self times: they
// and bench.unattributed_s add up to bench.whole_s.
var selfRows = []string{
	"core.build_s", "core.step_s", "sim.acquire_s", "sim.release_s", "sim.route_self_s",
	"sim.halt_scan_s", "adversary.crashes_s", "adversary.filter_s", "trace.digest_s",
	"service.core_setup_s", "service.bookkeeping_s", "service.live_view_s",
}

func initLayers(r *report) {
	for _, m := range perLayerNames {
		r.set(m.name, m.unit, 0)
	}
}

const nsPerS = 1e9

// oneShotLayers reports the ledger of a traced one-shot workload, per
// traced run.
func oneShotLayers(r *report, l *ledger, untraced *opTotals) {
	initLayers(r)
	ops := float64(max(1, l.ops))
	perOp := func(ns int64) float64 { return float64(ns) / nsPerS / ops }
	busy := l.stepBusy.Load()
	routeSelf := l.roundNs - busy - l.crashesNs - l.filterNs - l.digestNs
	r.set("core.build_s", "s", perOp(l.buildNs))
	r.set("core.build_alloc_mb", "MB", float64(l.buildAlloc)/(1<<20)/ops)
	r.set("core.step_s", "s", perOp(busy))
	r.set("core.step_calls", "count", float64(l.steps)/ops)
	if l.steps > 0 {
		r.set("core.ns_per_step", "ns", float64(l.stepNs)/float64(l.steps))
	}
	r.set("sim.acquire_s", "s", perOp(l.acquireNs))
	r.set("sim.release_s", "s", perOp(l.releaseNs))
	r.set("sim.round_s", "s", perOp(l.roundNs))
	r.set("sim.route_self_s", "s", perOp(routeSelf))
	if l.msgs > 0 {
		r.set("sim.route_ns_per_msg", "ns", float64(routeSelf)/float64(l.msgs))
	}
	r.set("sim.halt_scan_s", "s", perOp(l.haltNs))
	r.set("sim.msgs", "count", float64(l.msgs)/ops)
	r.set("sim.rounds", "count", float64(l.rounds)/ops)
	r.set("sim.polls", "count", float64(l.polls)/ops)
	if l.steps+l.idle > 0 {
		r.set("sim.step_per_poll", "fraction", float64(l.steps)/float64(l.steps+l.idle))
	}
	r.set("adversary.crashes_s", "s", perOp(l.crashesNs))
	r.set("adversary.filter_s", "s", perOp(l.filterNs))
	r.set("adversary.orders", "count", float64(l.orders)/ops)
	r.set("adversary.midsend_orders", "count", float64(l.midsend)/ops)
	r.set("adversary.filter_evals", "count", float64(l.filterEvals)/ops)
	if l.filterEvals > 0 {
		r.set("adversary.filter_keep_frac", "fraction", float64(l.filterKeeps)/float64(l.filterEvals))
	}
	r.set("trace.digest_s", "s", perOp(l.digestNs))
	r.set("trace.digests", "count", float64(l.digests)/ops)
	finishLayers(r, l, untraced)
}

// finishLayers adds the runtime rows (from the untraced runs), the
// whole-run row, the unattributed remainder and the tracing overhead,
// and notes the ledger sum.
func finishLayers(r *report, l *ledger, untraced *opTotals) {
	untraced.runtimeLayer(r)
	whole := float64(l.wholeNs) / nsPerS / float64(max(1, l.ops))
	sum := 0.0
	for _, name := range selfRows {
		sum += r.metrics[name].Value
	}
	r.set("bench.whole_s", "s", whole)
	r.set("bench.unattributed_s", "s", whole-sum)
	if base := untraced.perOp(untraced.wall.Seconds()); base > 0 {
		r.set("bench.trace_overhead_frac", "fraction", whole/base-1)
	}
	r.note("ledger: %d traced ops; self-time rows sum to %.6f s + unattributed %.6f s = whole %.6f s per op (untraced %.6f s)",
		l.ops, sum, whole-sum, whole, untraced.perOp(untraced.wall.Seconds()))
	for _, name := range selfRows {
		if v := r.metrics[name].Value; v != 0 {
			r.note("ledger: %-24s %12.6f s  %5.1f%%", name, v, 100*v/whole)
		}
	}
	r.note("ledger: %-24s %12.6f s  %5.1f%%", "bench.unattributed_s", whole-sum, 100*(whole-sum)/whole)
}
