package main

import (
	"time"

	"repro/internal/engine"
)

// metricDef describes one named metric. BENCHMARK.json carries the
// same names, units, directions and bounds; a test keeps the two
// in step.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected; 0 on per-layer
	// metrics, which carry no bound.
	bound float64
	// layer and moves document a per-layer metric: the module it
	// measures and the end-to-end metric and workload it should move.
	layer, moves string
}

// endToEndMetrics are measured with tracing off. Every bound is the
// 25% ceiling BENCHMARK.json allows: ten runs of one build on this
// host, each with another seed, spread (interquartile range over
// median) 6-15% on wall_s and 9-17% on op_p99_ms, so the 10% and 20%
// first proposed would reject a build compared with itself. README.md
// has the measured table.
var endToEndMetrics = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayerMetrics come from the traced pass and from the counters the
// layers already return. A workload that does not exercise a layer
// reports 0 for it.
var perLayerMetrics = []metricDef{
	{name: "parser_ms", unit: "ms", better: "lower", layer: "parser", moves: "op_p50_ms on bound-burst"},
	{name: "pcg_ms", unit: "ms", better: "lower", layer: "pcg", moves: "op_p50_ms on bound-burst"},
	{name: "rewrite_ms", unit: "ms", better: "lower", layer: "rewrite", moves: "op_p50_ms on bound-burst"},
	{name: "plan_ms", unit: "ms", better: "lower", layer: "plan", moves: "op_p50_ms on bound-burst"},
	{name: "physical_ms", unit: "ms", better: "lower", layer: "physical", moves: "op_p50_ms on bound-burst"},
	{name: "frontend_ms", unit: "ms", better: "lower", layer: "parser..physical", moves: "op_p50_ms on bound-burst, serve-mix misses; <1% of wall_s on tc-dense"},
	{name: "rules", unit: "count", better: "lower", layer: "parser", moves: "none; sizes the front end's input"},
	{name: "strata", unit: "count", better: "lower", layer: "pcg", moves: "none; sizes the plan"},
	{name: "physical_ops", unit: "count", better: "lower", layer: "physical", moves: "none; sizes the compiled program"},
	{name: "rewrite_applied_share", unit: "share", better: "higher", layer: "rewrite", moves: "wall_s on bound-burst (1 there, 0 on the batch workloads)"},
	{name: "index_build_s", unit: "s", better: "lower", layer: "storage", moves: "wall_s on sssp-agg, cc-hub"},
	{name: "stats_setup_s", unit: "s", better: "lower", layer: "storage", moves: "cross-check of index_build_s from Stats.SetupDuration"},
	{name: "rows_indexed", unit: "count", better: "lower", layer: "storage", moves: "index_build_s"},
	{name: "tag_reject_rate", unit: "share", better: "higher", layer: "storage", moves: "wall_s on sssp-agg, cc-hub"},
	{name: "key_skip_rate", unit: "share", better: "higher", layer: "storage", moves: "wall_s on sssp-agg, cc-hub"},
	{name: "bloom_skip_rate", unit: "share", better: "higher", layer: "storage", moves: "wall_s on sssp-agg, cc-hub"},
	{name: "engine_run_s", unit: "s", better: "lower", layer: "engine", moves: "wall_s on tc-dense (>=80% of it)"},
	{name: "busy_share", unit: "share", better: "higher", layer: "engine", moves: "wall_s on tc-dense"},
	{name: "tuples_derived", unit: "count", better: "lower", layer: "engine", moves: "wall_s on tc-dense"},
	{name: "tuples_sent", unit: "count", better: "lower", layer: "engine", moves: "wall_s on tc-dense"},
	{name: "tuples_merged", unit: "count", better: "lower", layer: "engine", moves: "wall_s on tc-dense"},
	{name: "iters", unit: "count", better: "lower", layer: "engine", moves: "wall_s on sssp-agg"},
	{name: "derived_per_result", unit: "ratio", better: "lower", layer: "engine", moves: "wall_s on tc-dense"},
	{name: "steal_success", unit: "share", better: "higher", layer: "engine", moves: "wall_s on cc-hub only"},
	{name: "imbalance", unit: "ratio", better: "lower", layer: "engine", moves: "wall_s on cc-hub only"},
	{name: "wait_share", unit: "share", better: "lower", layer: "coord/queueing", moves: "wall_s on sssp-agg, cc-hub"},
	{name: "global_barriers", unit: "count", better: "lower", layer: "coord", moves: "wall_s under the Global strategy only"},
	{name: "refresh_ms", unit: "ms", better: "lower", layer: "ivm", moves: "op_p50_ms, op_p99_ms on ivm-churn; serve-mix mutations"},
	{name: "refresh_del_ms", unit: "ms", better: "lower", layer: "ivm", moves: "op_p99_ms on ivm-churn"},
	{name: "refresh_red_ms", unit: "ms", better: "lower", layer: "ivm", moves: "op_p99_ms on ivm-churn"},
	{name: "refresh_ins_ms", unit: "ms", better: "lower", layer: "ivm", moves: "op_p50_ms on ivm-churn"},
	{name: "incremental_share", unit: "share", better: "higher", layer: "ivm", moves: "op_p99_ms on ivm-churn"},
	{name: "delta_tuples_per_op", unit: "count", better: "lower", layer: "ivm", moves: "op_p50_ms on ivm-churn"},
	{name: "server_self_ms", unit: "ms", better: "lower", layer: "server", moves: "op_p50_ms, ops_per_s on serve-mix"},
	{name: "server_self_hit_ms", unit: "ms", better: "lower", layer: "server", moves: "op_p50_ms on serve-mix"},
	{name: "server_self_miss_ms", unit: "ms", better: "lower", layer: "server", moves: "op_p99_ms on serve-mix"},
	{name: "server_self_cc_ms", unit: "ms", better: "lower", layer: "server", moves: "op_p99_ms on serve-mix"},
	{name: "server_self_mutate_ms", unit: "ms", better: "lower", layer: "server", moves: "op_p99_ms on serve-mix"},
	{name: "prepared_hit_rate", unit: "share", better: "higher", layer: "server", moves: "op_p50_ms on serve-mix"},
	{name: "index_cache_hit_rate", unit: "share", better: "higher", layer: "server", moves: "op_p50_ms on serve-mix"},
	{name: "rejected", unit: "count", better: "lower", layer: "server", moves: "fail_share on serve-mix"},
	{name: "load_s", unit: "s", better: "lower", layer: "dcdatalog", moves: "setup_s everywhere"},
	{name: "prepare_ms", unit: "ms", better: "lower", layer: "dcdatalog", moves: "op_p50_ms on bound-burst"},
	{name: "exec_ms", unit: "ms", better: "lower", layer: "dcdatalog", moves: "wall_s everywhere"},
	{name: "materialize_ms", unit: "ms", better: "lower", layer: "dcdatalog", moves: "wall_s on tc-dense"},
	{name: "alloc_mb", unit: "MB", better: "lower", layer: "process", moves: "informational"},
	{name: "mallocs", unit: "count", better: "lower", layer: "process", moves: "informational"},
	{name: "heap_peak_mb", unit: "MB", better: "lower", layer: "process", moves: "informational"},
	{name: "trace_cover", unit: "share", better: "higher", layer: "trace", moves: "check: layer spans sum to the traced wall (>= 0.9)"},
	{name: "trace_overhead", unit: "ratio", better: "lower", layer: "trace", moves: "check: traced wall over untraced wall_s"},
}

// layerSamples collects per-layer samples by metric name: one per
// call for the per-call times, one per rep for counts and shares.
// Every metric is reported as the median of its samples.
type layerSamples map[string][]float64

// add is a no-op on the nil map the untraced pass carries.
func (l layerSamples) add(name string, v float64) {
	if l != nil {
		l[name] = append(l[name], v)
	}
}

func (l layerSamples) addMS(name string, d time.Duration) { l.add(name, float64(d)/1e6) }

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// addEngine records what one engine run's Stats say about the engine,
// coord and storage-probe layers.
func (l layerSamples) addEngine(st engine.Stats, resultTuples int) {
	if l == nil {
		return
	}
	var busy, wait time.Duration
	var derived, sent, merged, barriers int64
	for _, b := range st.BusyTime() {
		busy += b
	}
	for _, ss := range st.Strata {
		for _, w := range ss.WaitTime {
			wait += w
		}
		derived += ss.TuplesDerived
		sent += ss.TuplesSent
		merged += ss.TuplesMerged
		barriers += ss.GlobalBarriers
	}
	capacity := float64(st.Workers) * float64(st.Duration)
	l.add("busy_share", share(float64(busy), capacity))
	l.add("wait_share", share(float64(wait), capacity))
	l.add("tuples_derived", float64(derived))
	l.add("tuples_sent", float64(sent))
	l.add("tuples_merged", float64(merged))
	l.add("iters", float64(st.TotalIters()))
	l.add("derived_per_result", share(float64(derived), float64(resultTuples)))
	l.add("global_barriers", float64(barriers))
	l.add("steal_success", share(float64(st.Steal.Attempts-st.Steal.Failures), float64(st.Steal.Attempts)))
	l.add("imbalance", st.Imbalance())
	l.add("tag_reject_rate", st.Probe.TagRejectRate())
	l.add("key_skip_rate", st.Probe.KeySkipRate())
	l.add("bloom_skip_rate", share(float64(st.Probe.BloomSkips), float64(st.Probe.BloomChecks)))
}
