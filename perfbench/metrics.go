package main

import (
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run (see README.md for each workload's reading of them).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"heap_alloc_mb", "MB"},
}

// perLayer are the traced run's metrics, reported by every traced run; a
// layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"workload.source_ms", "ms"},
	{"lang.parse_ms", "ms"},
	{"lang.check_ms", "ms"},
	{"compile.build_ms", "ms"},
	{"compile.alloc_mb", "MB"},
	{"core.enlarge_ms", "ms"},
	{"core.enlarge_alloc_mb", "MB"},
	{"emu.record_ms", "ms"},
	{"emu.record_ns_per_event", "ns/event"},
	{"svc.store.save_ms", "ms"},
	{"svc.store.map_ms", "ms"},
	{"svc.store.mmap_per_req", "maps/req"},
	{"uarch.replay_ns_per_event", "ns/event"},
	{"uarch.replay_alloc_kb", "KB/call"},
	{"uarch.segmented_ms", "ms"},
	{"uarch.segmented_ns_per_event", "ns/event"},
	{"uarch.segment_speedup", "x"},
	{"uarch.predecode_ms", "ms"},
	{"uarch.sweep_ms", "ms"},
	{"uarch.sweep_ns_per_lane_event", "ns/lane-event"},
	{"uarch.simulate_many_ms", "ms"},
	{"uarch.simulate_many_ns_per_lane_event", "ns/lane-event"},
	{"harness.new_s", "s"},
	{"harness.table2_s", "s"},
	{"harness.fig3_s", "s"},
	{"harness.fig4_s", "s"},
	{"harness.fig5_s", "s"},
	{"harness.fig6_s", "s"},
	{"harness.fig7_s", "s"},
	{"harness.headtohead_s", "s"},
	{"svc.overhead_ms", "ms"},
	{"svc.stage.compile_ms", "ms"},
	{"svc.stage.trace_ms", "ms"},
	{"svc.stage.replay_ms", "ms"},
	{"svc.stage.sweep_ms", "ms"},
	{"svc.stage.segreplay_ms", "ms"},
	{"svc.hit_ratio.program", "ratio"},
	{"svc.hit_ratio.trace", "ratio"},
	{"svc.hit_ratio.predecode", "ratio"},
	{"svc.coalesced_ratio", "ratio"},
	{"svc.engine_share.sweep", "ratio"},
	{"svc.engine_share.replay-segmented", "ratio"},
	{"svc.engine_share.simulate-many", "ratio"},
	{"process.peak_rss_mb", "MB"},
	{"loadgen.open_p50_ms", "ms"},
	{"loadgen.open_tail_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"trace.unattributed_s", "s"},
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64 // metrics measured directly
	// weight, when set, maps each library span to how many times the
	// workload's measured phase needed that call (serve-* runs); nil
	// weighs every span once (paper, whose probe mirrors the batch).
	weight  func(span) float64
	notes   map[string]any
	invalid string // non-empty: the run is not scored
}

func mergeMetrics(dst, src map[string]float64) map[string]float64 {
	if dst == nil {
		dst = map[string]float64{}
	}
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// spanAgg is a weighted sum over the spans of one name.
type spanAgg struct {
	ns, work, alloc, calls float64
}

func (a spanAgg) ms() float64 { return a.ns / 1e6 }

// nsPer is nanoseconds per work unit (0 when no work was done).
func (a spanAgg) nsPer() float64 {
	if a.work == 0 {
		return 0
	}
	return a.ns / a.work
}

func aggregate(spans []span, self map[int]time.Duration, name string, weight func(span) float64) spanAgg {
	var a spanAgg
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		w := 1.0
		if weight != nil {
			w = weight(s)
		}
		a.ns += w * float64(self[s.ID])
		a.work += w * s.Work
		a.alloc += w * float64(s.Alloc)
		a.calls += w
	}
	return a
}

// libraryMetrics derives the per-layer metrics from the library spans.
func libraryMetrics(spans []span, weight func(span) float64) map[string]float64 {
	self := selfTimes(spans)
	agg := func(name string) spanAgg { return aggregate(spans, self, name, weight) }
	m := map[string]float64{}
	for _, x := range []struct{ metric, span string }{
		{"workload.source_ms", spSource},
		{"lang.parse_ms", spParse},
		{"lang.check_ms", spCheck},
		{"compile.build_ms", spBuild},
		{"core.enlarge_ms", spShape},
		{"emu.record_ms", spRecord},
		{"svc.store.save_ms", spSave},
		{"svc.store.map_ms", spMap},
		{"uarch.segmented_ms", spSegmented},
		{"uarch.predecode_ms", spPredecode},
		{"uarch.sweep_ms", spSweep},
		{"uarch.simulate_many_ms", spMany},
	} {
		m[x.metric] = agg(x.span).ms()
	}
	m["compile.alloc_mb"] = agg(spBuild).alloc / (1 << 20)
	m["core.enlarge_alloc_mb"] = agg(spShape).alloc / (1 << 20)
	m["emu.record_ns_per_event"] = agg(spRecord).nsPer()
	rep, seg := agg(spReplay), agg(spSegmented)
	m["uarch.replay_ns_per_event"] = rep.nsPer()
	if rep.calls > 0 {
		m["uarch.replay_alloc_kb"] = rep.alloc / rep.calls / 1024
	}
	m["uarch.segmented_ns_per_event"] = seg.nsPer()
	if seg.ns > 0 {
		m["uarch.segment_speedup"] = rep.ns / seg.ns
	}
	m["uarch.sweep_ns_per_lane_event"] = agg(spSweep).nsPer()
	m["uarch.simulate_many_ns_per_lane_event"] = agg(spMany).nsPer()

	// Time no layer span covers: the benchmark's own glue (its reference
	// checks have spans of their own, layer "check").
	var glue time.Duration
	for _, s := range spans {
		if s.Layer == "bench" {
			glue += self[s.ID]
		}
	}
	m["trace.unattributed_s"] = glue.Seconds()
	return m
}
