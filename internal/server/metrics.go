package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Metrics aggregates per-query counters; everything is an atomic so
// the query path never takes a lock for accounting. Gauges (queue
// depth, in-flight, cache entries) are read from their owners at
// scrape time instead of being mirrored here.
type Metrics struct {
	QueriesOK        atomic.Int64 // completed with a full fixpoint
	QueriesTruncated atomic.Int64 // completed but budget-capped
	QueriesCanceled  atomic.Int64 // deadline or client disconnect
	QueriesFailed    atomic.Int64 // compile or execution errors
	Rejected         atomic.Int64 // 429s from admission

	LatencyNanos atomic.Int64 // summed over completed queries
	LatencyCount atomic.Int64
	Iterations   atomic.Int64 // local iterations, summed
	TuplesOut    atomic.Int64 // derived tuples returned, summed

	// Probe-path counters, summed over completed queries: the tagged
	// directory's traffic (probes / tag rejects), the audited-bucket
	// compare ledger (compares done / compares skipped). Ratios are for
	// dashboards to derive: e.g. skip efficiency = skips / (compares +
	// skips).
	ProbeTagProbes   atomic.Int64
	ProbeTagRejects  atomic.Int64
	ProbeKeyCompares atomic.Int64
	ProbeKeySkips    atomic.Int64

	// Morsel-scheduler counters, summed over completed queries: delta
	// blocks published to the steal plane, the subset executed by a
	// non-owner, and the idle workers' steal probes (attempts /
	// failures). A high stolen share on a dashboard means the workload
	// is skew-bound and the scheduler is absorbing it.
	StealMorsels  atomic.Int64
	StealStolen   atomic.Int64
	StealAttempts atomic.Int64
	StealFailures atomic.Int64

	// Cooperative start, summed over completed queries: strata that
	// reached their fixpoint on the request's goroutine, and strata
	// that widened onto worker goroutines. A service of point queries
	// reads almost all cooperative.
	StrataCooperative atomic.Int64
	StrataWidened     atomic.Int64

	// SetupSeconds distributes per-query setup time (base-relation
	// registration + index attach/build before evaluation): warm
	// queries against a prepared base land in the lowest buckets, cold
	// ones in the milliseconds.
	SetupSeconds Histogram

	// Mutation-path counters: accepted mutation batches, tuples
	// inserted/deleted, and batches that failed validation or were shed
	// by admission control.
	MutationsOK       atomic.Int64
	MutationsFailed   atomic.Int64
	MutationsRejected atomic.Int64
	TuplesInserted    atomic.Int64
	TuplesDeleted     atomic.Int64

	// Materialized-view counters: refreshes by mode and the summed
	// delta-kernel output (tuples added + over-deleted + re-derived) of
	// incremental refreshes. A dashboard divides IvmDeltaTuples by
	// IvmRefreshIncremental to see the average incremental batch the
	// views absorb without recomputing.
	IvmRefreshIncremental atomic.Int64
	IvmRefreshFull        atomic.Int64
	IvmDeltaTuples        atomic.Int64

	// Demand-rewrite counters: queries whose program the magic-set
	// rewrite restricted to the demanded bindings, plus the planner's
	// estimated vs the engine's actual derivation counts for the
	// estimable (non-recursive, fully statistics-covered) strata. A
	// dashboard divides actual by est to watch the cost model's bias.
	DemandRewrites     atomic.Int64
	DemandEstTuples    atomic.Int64
	DemandActualTuples atomic.Int64

	// IvmRefreshSeconds distributes view-refresh wall time: incremental
	// refreshes of small deltas land decades below the cold fixpoint
	// recompute they replace.
	IvmRefreshSeconds Histogram
}

// setupBuckets are the Histogram's upper bounds in seconds. Decades
// from 10µs to 1s: a warm index attach is microseconds, a cold build
// on a benchmark-scale graph is milliseconds to tens of milliseconds.
var setupBuckets = [...]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// Histogram is a fixed-bucket duration histogram with atomic cells,
// rendered in the Prometheus histogram exposition format.
type Histogram struct {
	counts [len(setupBuckets) + 1]atomic.Int64 // last cell = +Inf
	sum    atomic.Int64                        // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(setupBuckets) && s > setupBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(d.Nanoseconds())
}

// write renders the histogram (cumulative buckets, sum, count).
func (h *Histogram) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, le := range setupBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatLE(le), cum)
	}
	cum += h.counts[len(setupBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sum.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// formatLE renders a bucket bound the way Prometheus clients do.
func formatLE(v float64) string { return fmt.Sprintf("%g", v) }

// counter is one caller-supplied monotonic value appended at scrape
// (for counters whose source of truth lives outside Metrics, like the
// per-dataset EDB index caches).
type counter struct {
	name  string
	help  string
	value int64
}

// gauge is one point-in-time value appended at scrape.
type gauge struct {
	name  string
	help  string
	value int64
}

// WritePrometheus renders the counters and the setup-time histogram
// (plus caller-supplied counters and gauges) in the Prometheus text
// exposition format.
func (m *Metrics) WritePrometheus(w io.Writer, counters []counter, gauges ...gauge) {
	emit := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	emit("dcserve_queries_ok_total", "Queries that reached the fixpoint.", m.QueriesOK.Load())
	emit("dcserve_queries_truncated_total", "Queries stopped by a tuple/iteration budget.", m.QueriesTruncated.Load())
	emit("dcserve_queries_canceled_total", "Queries aborted by deadline or disconnect.", m.QueriesCanceled.Load())
	emit("dcserve_queries_failed_total", "Queries that failed to compile or execute.", m.QueriesFailed.Load())
	emit("dcserve_rejected_total", "Queries rejected with 429 by admission control.", m.Rejected.Load())
	emit("dcserve_query_latency_nanoseconds_sum", "Summed wall time of completed queries.", m.LatencyNanos.Load())
	emit("dcserve_query_latency_count", "Number of latency observations.", m.LatencyCount.Load())
	emit("dcserve_iterations_total", "Local evaluation iterations, summed over queries.", m.Iterations.Load())
	emit("dcserve_tuples_derived_total", "Derived tuples returned, summed over queries.", m.TuplesOut.Load())
	emit("dcserve_probe_tag_probes_total", "Occupied directory slots inspected via the tag lane.", m.ProbeTagProbes.Load())
	emit("dcserve_probe_tag_rejects_total", "Directory slots rejected by the 1-byte tag without a key compare.", m.ProbeTagRejects.Load())
	emit("dcserve_probe_key_compares_total", "Full-key arena compares performed on probe paths.", m.ProbeKeyCompares.Load())
	emit("dcserve_probe_key_skips_total", "Full-key compares eliminated by the single-key bucket audit.", m.ProbeKeySkips.Load())
	emit("dcserve_steal_morsels_total", "Delta blocks published to the work-stealing plane.", m.StealMorsels.Load())
	emit("dcserve_steal_stolen_total", "Published morsels executed by a worker other than their owner.", m.StealStolen.Load())
	emit("dcserve_steal_attempts_total", "Steal probes against a peer's deque.", m.StealAttempts.Load())
	emit("dcserve_steal_failures_total", "Steal probes that lost the race for an already-drained deque.", m.StealFailures.Load())
	emit("dcserve_strata_cooperative_total", "Strata that reached their fixpoint on the calling goroutine, without starting workers.", m.StrataCooperative.Load())
	emit("dcserve_strata_widened_total", "Strata that crossed the cooperative threshold and fanned out onto worker goroutines.", m.StrataWidened.Load())
	emit("dcserve_mutations_total", "Mutation batches applied.", m.MutationsOK.Load())
	emit("dcserve_mutations_failed_total", "Mutation batches that failed validation or application.", m.MutationsFailed.Load())
	emit("dcserve_mutations_rejected_total", "Mutation batches shed by admission control.", m.MutationsRejected.Load())
	emit("dcserve_tuples_inserted_total", "EDB tuples inserted via the mutation endpoint.", m.TuplesInserted.Load())
	emit("dcserve_tuples_deleted_total", "EDB tuples deleted via the mutation endpoint.", m.TuplesDeleted.Load())
	emit("dcserve_ivm_refresh_incremental_total", "View refreshes served by the delta kernel.", m.IvmRefreshIncremental.Load())
	emit("dcserve_ivm_refresh_full_total", "View refreshes that fell back to a full recompute.", m.IvmRefreshFull.Load())
	emit("dcserve_ivm_delta_tuples_total", "Delta-kernel tuples (added, over-deleted, re-derived) across incremental refreshes.", m.IvmDeltaTuples.Load())
	emit("dcserve_demand_rewrites_total", "Queries evaluated under the demand (magic-set) rewrite.", m.DemandRewrites.Load())
	emit("dcserve_demand_est_tuples_total", "Planner-estimated derivations for estimable strata, summed over queries.", m.DemandEstTuples.Load())
	emit("dcserve_demand_actual_tuples_total", "Actual derivations for the same estimable strata, summed over queries.", m.DemandActualTuples.Load())
	for _, c := range counters {
		emit(c.name, c.help, c.value)
	}
	m.SetupSeconds.write(w, "dcserve_setup_seconds", "Per-query setup time (base registration and index attach/build) in seconds.")
	m.IvmRefreshSeconds.write(w, "dcserve_ivm_refresh_seconds", "Materialized-view refresh wall time in seconds.")
	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.value)
	}
}
