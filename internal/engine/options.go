package engine

import (
	"runtime"
	"time"

	"repro/internal/coord"
	"repro/internal/storage"
)

// Options configures a parallel evaluation run.
type Options struct {
	// Workers is the number of parallel workers (goroutines); 0 uses
	// GOMAXPROCS.
	Workers int
	// Strategy selects the coordination scheme (Global / SSP / DWS).
	Strategy coord.Kind
	// Slack is the SSP staleness bound s (paper uses 5).
	Slack int
	// MaxWait caps the DWS wait budget τ and doubles as the
	// deadlock-avoidance timeout of Algorithm 2.
	MaxWait time.Duration
	// BatchSize is the number of tuples per exchanged message.
	BatchSize int
	// QueueCap is the capacity (messages) of each SPSC ring.
	QueueCap int
	// Epsilon is the convergence threshold for float sum aggregates
	// (PageRank); changes at or below it do not re-enter the delta.
	Epsilon float64
	// MaxLocalIters bounds local iterations per worker per stratum;
	// 0 means run to fixpoint.
	MaxLocalIters int
	// MaxTuples bounds the total tuples exchanged per stratum; 0 means
	// unbounded. Exceeding it drops pending deltas and marks the
	// stratum Capped — the analogue of running out of memory for
	// diverging programs whose blow-up happens inside one iteration.
	MaxTuples int64
	// NoExistCache disables the §6.2.2 existence-check cache
	// (ablation).
	NoExistCache bool
	// NoIndexAgg disables index-assisted extremum merges in favor of
	// the per-batch linear-scan path (§6.2.1 ablation).
	NoIndexAgg bool
	// NoPartialAgg disables partial aggregation in the Distribute
	// operator (ablation).
	NoPartialAgg bool
	// Base, when set, is a shared prepared-base plane: relations it
	// covers skip per-run tuple registration and reuse (or build-once
	// and memoize) their hash indexes across runs. Relations outside
	// the base still come from the edb argument and build cold.
	Base *PreparedBase
	// Probers maps virtual relation names to caller-owned membership
	// oracles. A probed relation carries no tuples: every occurrence in
	// the program must be a fully-bound stratified negation (validated
	// at run start), and its anti-join probes dispatch straight to
	// MembershipProber.ContainsTuple. The ivm plane uses this to let
	// generated delta rules guard on a view's live fixpoint without
	// snapshotting or indexing it per refresh.
	Probers map[string]MembershipProber
	// ProbeGroup is G, the number of independent probe chains each
	// worker keeps in flight in the staged join pipeline: probes are
	// hashed and their directory lines prefetched a group ahead of the
	// walk. 0 uses the default (16); 1 disables the pipeline; values
	// above 32 are clamped (the stage buffer is fixed-size so the
	// steady state stays allocation-free).
	//
	// When left at 0, the pipeline additionally gates itself per block
	// on the probed structure's size (pipelineMinRows): staging and
	// prefetching only pay when the directory outsizes the cache, so
	// small cache-resident indexes take the serial walk. Setting
	// ProbeGroup explicitly pins the pipeline on regardless of index
	// size (benchmarks, tests).
	ProbeGroup int

	// StealOff disables morsel-driven work stealing: each worker
	// evaluates only its own gathered delta, as before PR8 (ablation /
	// differential testing). Stealing is also implicitly off at one
	// worker, where there is no peer to steal from.
	StealOff bool

	// probeGroupPinned records that ProbeGroup was set by the caller
	// rather than defaulted; withDefaults derives it.
	probeGroupPinned bool
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Slack <= 0 {
		o.Slack = 5
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4096
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-9
	}
	if o.ProbeGroup <= 0 {
		o.ProbeGroup = 16
	} else {
		o.probeGroupPinned = true
	}
	if o.ProbeGroup > maxProbeGroup {
		o.ProbeGroup = maxProbeGroup
	}
	return o
}

// StealStats aggregates the morsel scheduler's activity: how many
// delta morsels ran, how many ran on a worker other than the one that
// gathered them, and how the idle workers' steal probes fared.
type StealStats struct {
	// MorselsExecuted counts every shared delta block that went through
	// the steal plane (executed by its owner or by a thief).
	MorselsExecuted int64
	// MorselsStolen counts morsels executed by a non-owner.
	MorselsStolen int64
	// Attempts counts steal probes against a chosen victim's deque;
	// Failures counts the probes that found it already drained (lost
	// the race to the owner or another thief).
	Attempts int64
	Failures int64
}

// Add accumulates o into s.
func (s *StealStats) Add(o StealStats) {
	s.MorselsExecuted += o.MorselsExecuted
	s.MorselsStolen += o.MorselsStolen
	s.Attempts += o.Attempts
	s.Failures += o.Failures
}

// imbalance is max/mean over per-worker busy time; 1.0 is perfectly
// balanced, and 0 means no busy time was recorded at all.
func imbalance(busy []time.Duration) float64 {
	if len(busy) == 0 {
		return 0
	}
	var sum, max time.Duration
	for _, b := range busy {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(busy))
	return float64(max) / mean
}

// StratumStats describes one stratum's execution.
type StratumStats struct {
	Preds         []string
	Recursive     bool
	LocalIters    []int64 // per worker
	TuplesSent    int64   // through SPSC buffers
	TuplesDerived int64   // kernel output volume incl. self-bound
	TuplesMerged  int64   // replica state changes
	WaitTime      []time.Duration
	Duration      time.Duration
	ResultTuples  map[string]int
	// GlobalBarriers counts Global strategy rounds. It is 0 for a
	// stratum that never widened: the barrier belongs to the worker
	// goroutines, and a stratum that finished cooperatively never
	// engaged its strategy.
	GlobalBarriers int64
	// Capped reports that MaxLocalIters fired with deltas still
	// pending: the fixpoint was NOT reached (benchmarks report this as
	// the OOM/DNF analogue for diverging baselines).
	Capped bool
	// Probe sums the workers' memory-level probe counters — tag-lane
	// rejects and audited key-compare skips — for this stratum.
	Probe storage.ProbeCounters
	// BusyTime is per-worker evaluation time: kernel execution over
	// seeds, local deltas and morsels (own or stolen), excluding
	// gathers, gates and parked waiting. Its spread is what the steal
	// plane exists to flatten.
	BusyTime []time.Duration
	// Steal sums the workers' morsel-scheduler counters for this
	// stratum.
	Steal StealStats
	// Cooperative start (coop.go): the stratum begins with the calling
	// goroutine stepping every worker and widens onto worker goroutines
	// once it has derived coopThreshold tuples. CoopIters and
	// CoopDuration are the local iterations (all workers) and wall time
	// of that phase; both are 0 when it was skipped because a base
	// rule's scan was already past the threshold. Widened reports that
	// worker goroutines were started, and WidenedAfter how many tuples
	// had been derived when they were (0 with Widened set: the phase
	// was skipped). BusyTime of the cooperative phase is credited to
	// the worker being stepped; LocalIters includes CoopIters.
	CoopIters    int64
	CoopDuration time.Duration
	Widened      bool
	WidenedAfter int64
}

// Imbalance is the stratum's busy-time imbalance ratio (max/mean); 1.0
// is perfectly balanced.
func (s *StratumStats) Imbalance() float64 { return imbalance(s.BusyTime) }

// Stats summarizes a run.
type Stats struct {
	Workers  int
	Strategy coord.Kind
	// SetupDuration is the pre-evaluation cost: registering the base
	// relations and building (or attaching from a shared PreparedBase)
	// their hash indexes. A warm run against a prepared base spends
	// orders of magnitude less here than a cold one.
	SetupDuration time.Duration
	// Duration is the evaluation time proper — fixpoint plus
	// materialization — excluding SetupDuration.
	Duration time.Duration
	Strata   []StratumStats
	// Probe sums the per-stratum probe counters over the whole run.
	Probe storage.ProbeCounters
	// Steal sums the per-stratum morsel-scheduler counters over the
	// whole run.
	Steal StealStats
	// CoopStrata counts the strata that reached their fixpoint on the
	// calling goroutine and WidenedStrata those that started worker
	// goroutines; CoopIters and CoopDuration sum the strata's
	// cooperative phases (see StratumStats).
	CoopStrata    int
	WidenedStrata int
	CoopIters     int64
	CoopDuration  time.Duration
}

// BusyTime sums each worker's evaluation time over all strata.
func (s *Stats) BusyTime() []time.Duration {
	busy := make([]time.Duration, s.Workers)
	for _, st := range s.Strata {
		for i, b := range st.BusyTime {
			if i < len(busy) {
				busy[i] += b
			}
		}
	}
	return busy
}

// Imbalance is the run-wide busy-time imbalance ratio (max/mean busy
// over workers, busy summed across strata); 1.0 is perfectly balanced,
// 0 means nothing was measured.
func (s *Stats) Imbalance() float64 { return imbalance(s.BusyTime()) }

// TotalIters sums local iterations over all workers and strata.
func (s *Stats) TotalIters() int64 {
	var n int64
	for _, st := range s.Strata {
		for _, it := range st.LocalIters {
			n += it
		}
	}
	return n
}

// Result is the output of a run: every IDB relation materialized, plus
// execution statistics.
type Result struct {
	Relations map[string][]storage.Tuple
	Stats     Stats
}
