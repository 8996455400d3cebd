package main

import (
	"math"
	"sort"
)

// agg says how a metric's samples fold into the one value a run reports.
type agg int

const (
	// geoMedian is the geometric mean, over the workload's programs, of
	// each program's median sample: every program weighs the same however
	// long its op takes, and one slow sample moves nothing.
	geoMedian agg = iota
	medianOf      // of all samples, whatever their program
	meanOf
	sumOf
	p90Of
	p99Of
	maxOf
)

// spec names one metric. BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds; bench_test.go holds the two
// together.
type spec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the median it may worsen by
	agg    agg
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the figures a user of p2go or p2god feels. Every workload
// reports every one; what the cold and the warm op are per workload is in
// workloads.go and README.md. The bounds are as wide as a bound may be: on
// the shared 2-core box one commit's medians drift by 10-15% within minutes.
var endToEnd = []spec{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "op_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "warm_op_ms", unit: "ms", better: lower, bound: 0.25},
}

// perLayer are the figures of single layers, from the traced pass and the
// direct layer calls. A workload that never enters a layer reports 0.
var perLayer = []spec{
	{name: "p4.parse_check_us", unit: "us", better: lower},
	{name: "p4.print_us", unit: "us", better: lower},
	{name: "p4.instantiate_us", unit: "us", better: lower},
	{name: "rt.parse_us", unit: "us", better: lower},
	{name: "rt.format_us", unit: "us", better: lower},
	{name: "trafficgen.gen_ns_per_pkt", unit: "ns/pkt", better: lower},
	{name: "ir.build_us", unit: "us", better: lower},
	{name: "deps.build_us", unit: "us", better: lower},
	{name: "tofino.allocate_us", unit: "us", better: lower},
	{name: "tofino.compile_us", unit: "us", better: lower},
	{name: "tofino.compile_calls", unit: "count", better: lower, agg: meanOf},
	{name: "core.compile_share", unit: "share", better: lower},
	{name: "profile.prepare_us", unit: "us", better: lower},
	{name: "sim.plan_us", unit: "us", better: lower},
	{name: "profile.replay_ns_per_pkt", unit: "ns/pkt", better: lower},
	{name: "profile.replay_calls", unit: "count", better: lower, agg: meanOf},
	{name: "core.replay_share", unit: "share", better: lower},
	{name: "sim.exec_ns_per_pkt", unit: "ns/pkt", better: lower},
	{name: "profile.collect_ns_per_pkt", unit: "ns/pkt", better: lower, agg: medianOf},
	{name: "profile.dedup_ratio", unit: "ratio", better: higher},
	{name: "profile.shard_speedup", unit: "ratio", better: higher},
	{name: "profile.merge_us", unit: "us", better: lower},
	{name: "profile.replay_pkts_per_s", unit: "pkts/s", better: higher, agg: meanOf},
	{name: "sim.interp_ns_per_pkt", unit: "ns/pkt", better: lower},
	{name: "core.optimize_ms", unit: "ms", better: lower},
	{name: "core.self_ms", unit: "ms", better: lower},
	{name: "core.self_share", unit: "share", better: lower},
	{name: "core.phase1_ms", unit: "ms", better: lower},
	{name: "core.phase2_ms", unit: "ms", better: lower},
	{name: "core.phase3_ms", unit: "ms", better: lower},
	{name: "core.phase4_ms", unit: "ms", better: lower},
	{name: "core.observations", unit: "count", better: higher, agg: meanOf},
	{name: "core.cache_hit_ratio", unit: "ratio", better: higher},
	{name: "core.rerun_lookup_us", unit: "us", better: lower},
	{name: "core.parallel_speedup", unit: "ratio", better: higher},
	{name: "core.stages_saved", unit: "stages", better: higher, agg: meanOf},
	{name: "controller.verify_ns_per_pkt", unit: "ns/pkt", better: lower},
	{name: "report.encode_us", unit: "us", better: lower},
	{name: "report.bytes", unit: "bytes", better: lower},
	{name: "service.trace_digest_ns_per_pkt", unit: "ns/pkt", better: lower},
	{name: "service.submit_ms", unit: "ms", better: lower},
	{name: "service.queue_wait_ms", unit: "ms", better: lower},
	{name: "service.run_ms", unit: "ms", better: lower},
	{name: "service.overhead_ms", unit: "ms", better: lower},
	{name: "service.cold_ms_p99", unit: "ms", better: lower, agg: p99Of},
	{name: "service.cached_ms_p90", unit: "ms", better: lower, agg: p90Of},
	{name: "service.cached_ms_p99", unit: "ms", better: lower, agg: p99Of},
	{name: "service.refused", unit: "count", better: lower, agg: sumOf},
	{name: "service.journal_append_us", unit: "us", better: lower},
	{name: "service.cache_hit_us", unit: "us", better: lower},
	{name: "service.cache_spill_us", unit: "us", better: lower},
	{name: "fleet.run_ms", unit: "ms", better: lower},
	{name: "fleet.compile_misses", unit: "count", better: lower, agg: meanOf},
	{name: "fleet.profile_misses", unit: "count", better: lower, agg: meanOf},
	{name: "fleet.dedup_ratio", unit: "ratio", better: higher},
	{name: "fleet.devices_per_s", unit: "devices/s", better: higher, agg: meanOf},
	{name: "cluster.acquire_us", unit: "us", better: lower},
	{name: "cluster.renew_us", unit: "us", better: lower},
	{name: "runtime.alloc_mb_per_op", unit: "MB", better: lower, agg: meanOf},
	{name: "runtime.allocs_per_op", unit: "count", better: lower, agg: meanOf},
	{name: "runtime.gc_cycles", unit: "count", better: lower, agg: sumOf},
	{name: "runtime.heap_peak_mb", unit: "MB", better: lower, agg: maxOf},
	{name: "trace.overhead_pct", unit: "%", better: lower, agg: medianOf},
	{name: "trace.root_self_pct", unit: "%", better: lower, agg: maxOf},
}

// series collects a run's samples per metric and class. A class is a
// program name, or "" for a metric with no per-program breakdown.
type series map[string]map[string][]float64

// add records a sample. A ratio whose base was zero is no sample.
func (s series) add(metric, class string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if s[metric] == nil {
		s[metric] = map[string][]float64{}
	}
	s[metric][class] = append(s[metric][class], v)
}

// pooled returns every sample of a metric, whatever its class.
func (s series) pooled(metric string) []float64 {
	var out []float64
	for _, class := range sortedKeys(s[metric]) {
		out = append(out, s[metric][class]...)
	}
	return out
}

// Quart is a sample set's size and quartiles.
type Quart struct {
	N      int     `json:"samples"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func quartOf(xs []float64) Quart {
	q1, med, q3 := quartiles(xs)
	return Quart{N: len(xs), Q1: q1, Median: med, Q3: q3}
}

// Metric is one reported figure: the value folded by the metric's agg, and
// the samples behind it per class so each program keeps its own row.
type Metric struct {
	Name    string           `json:"name"`
	Unit    string           `json:"unit"`
	Better  string           `json:"better"`
	Bound   float64          `json:"bound,omitempty"`
	Value   float64          `json:"value"`
	Samples int              `json:"samples"`
	Classes map[string]Quart `json:"classes,omitempty"`
}

// fold reports every metric of specs from the samples collected.
func (s series) fold(specs []spec) []Metric {
	out := make([]Metric, 0, len(specs))
	for _, sp := range specs {
		m := Metric{Name: sp.name, Unit: sp.unit, Better: sp.better, Bound: sp.bound}
		all := s.pooled(sp.name)
		m.Samples = len(all)
		if len(all) > 0 {
			m.Classes = map[string]Quart{}
			var medians []float64
			for _, class := range sortedKeys(s[sp.name]) {
				xs := s[sp.name][class]
				m.Classes[class] = quartOf(xs)
				medians = append(medians, median(xs))
			}
			switch sp.agg {
			case geoMedian:
				m.Value = geomean(medians)
			case medianOf:
				m.Value = median(all)
			case meanOf:
				m.Value = mean(all)
			case sumOf:
				m.Value = sum(all)
			case p90Of:
				m.Value = percentile(all, 90)
			case p99Of:
				m.Value = percentile(all, 99)
			case maxOf:
				m.Value = percentile(all, 100)
			}
		}
		out = append(out, m)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
