package ivm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/pcg"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Config parameterizes a materialized view.
type Config struct {
	// Name identifies the view (metrics, registries).
	Name string
	// Source is the program text whose IDB fixpoint the view maintains.
	Source string
	// Schemas are the extensional relations' schemas.
	Schemas map[string]*storage.Schema
	// Syms is the symbol table shared with the owning database.
	Syms *storage.SymbolTable
	// Params are the program's $parameter bindings, fixed at
	// materialization.
	Params map[string]physical.Param
	// Opts are the engine options every refresh and recompute runs
	// with (workers, strategy, probe group, ...). Base and Probers are
	// owned by the view and overwritten per run.
	Opts engine.Options
	// Crossover is the churn fraction — net changed tuples over the
	// mutated relations' pre-batch size — above which Refresh abandons
	// delta propagation for a full recompute. 0 means the default
	// (0.3); a huge delta re-derives most of the fixpoint anyway, and
	// past the crossover the delta machinery's per-tuple overhead makes
	// it slower than recomputing. Negative disables incremental
	// maintenance outright.
	Crossover float64
}

const defaultCrossover = 0.3

// Mutation is one EDB tuple-level change. Tuples are owned by the view
// once applied; callers must not mutate them afterwards.
type Mutation struct {
	Rel    string
	Tuple  storage.Tuple
	Delete bool
}

// RefreshStats describes one Refresh call.
type RefreshStats struct {
	// Mode is "noop" (nothing pending), "incremental", or "full".
	Mode string
	// Reason says why a full recompute ran (ineligible program, churn
	// past the crossover, stale after a failed refresh).
	Reason string
	// InsTuples / DelTuples are the batch's net EDB changes after
	// multiset cancellation.
	InsTuples int
	DelTuples int
	// Added / OverDeleted / Rederived count IDB tuples: fresh or
	// revived derivations from the insert pass, kills from the
	// over-delete pass, and revivals from the re-derive pass.
	Added       int
	OverDeleted int
	Rederived   int
	// DeltaTuples is the total IDB delta volume the refresh processed
	// (Added + OverDeleted + Rederived); the service exports it as
	// dcserve_ivm_delta_tuples_total.
	DeltaTuples int
	// FullSlices counts seed slices that degraded to full live
	// snapshots because the delta shared no variable with the fixpoint
	// atom.
	FullSlices int
	// Durations: total, and the three incremental phases.
	Duration    time.Duration
	DelDuration time.Duration
	RedDuration time.Duration
	InsDuration time.Duration
	// Probe and TuplesDerived sum the engine work of the runs the
	// refresh completed: the full program on a recompute, the
	// over-delete, re-derive and insert programs on an incremental
	// refresh. Unlike the durations they do not depend on the host.
	Probe         storage.ProbeCounters
	TuplesDerived int64
	// DelProbe, RedProbe and InsProbe split Probe by incremental phase.
	DelProbe storage.ProbeCounters
	RedProbe storage.ProbeCounters
	InsProbe storage.ProbeCounters
}

// addRun adds one completed engine run to the refresh's work counters
// and, when phase is non-nil, to that phase's probe counters.
func (st *RefreshStats) addRun(s *engine.Stats, phase *storage.ProbeCounters) {
	st.Probe.Add(s.Probe)
	for i := range s.Strata {
		st.TuplesDerived += s.Strata[i].TuplesDerived
	}
	if phase != nil {
		phase.Add(s.Probe)
	}
}

// Stats are a view's cumulative counters.
type Stats struct {
	Refreshes   int64
	Incremental int64
	Full        int64
	DeltaTuples int64
	Pending     int
	Stale       bool
	// Ineligible is non-empty when the program is outside the
	// incrementally maintainable fragment (every refresh recomputes).
	Ineligible string
	Last       RefreshStats
}

// View is a materialized IDB fixpoint kept warm across EDB mutations.
// All methods are safe for concurrent use; refreshes serialize on the
// view lock.
type View struct {
	cfg       Config
	crossover float64
	analysis  *pcg.Analysis
	full      *physical.Program
	rw        *rewrite
	insProg   *physical.Program
	delProg   *physical.Program
	redProg   *physical.Program
	reason    string // non-empty: fallback-only view

	mu sync.Mutex
	// fix[pred] is the maintained fixpoint of one IDB predicate; the
	// count lane is the DRed liveness flag.
	fix map[string]*storage.CountedSetRelation
	// mirrors[rel] is the counted multiset mirror of one EDB relation;
	// its live set is the canonical relation contents.
	mirrors map[string]*storage.CountedSetRelation
	// idx caches incremental live indexes per (pred, anchor columns).
	idx map[string]*liveIndex
	// edb holds the deduplicated live snapshots the engine runs over.
	edb map[string][]storage.Tuple
	// base is the view's prepared-base chain; Rebase carries memoized
	// indexes of unmutated relations across refreshes.
	base    *engine.PreparedBase
	pending []Mutation
	dirty   map[string]bool
	stale   bool
	stats   Stats
}

// analyzeText parses and analyzes one program text against the view's
// schemas.
func analyzeText(src string, schemas map[string]*storage.Schema, params map[string]physical.Param) (*pcg.Analysis, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	pt := make(map[string]storage.Type, len(params))
	for k, p := range params {
		pt[k] = p.Type
	}
	return pcg.Analyze(prog, schemas, pt)
}

// compileAnalysis plans and compiles an analyzed program.
func compileAnalysis(a *pcg.Analysis, params map[string]physical.Param, syms *storage.SymbolTable, opts ...plan.BuildOption) (*physical.Program, error) {
	lp, err := plan.Build(a, opts...)
	if err != nil {
		return nil, err
	}
	return physical.Compile(lp, params, syms)
}

// compileText compiles one program text against the view's schemas.
func compileText(src string, schemas map[string]*storage.Schema, params map[string]physical.Param, syms *storage.SymbolTable, opts ...plan.BuildOption) (*physical.Program, *pcg.Analysis, error) {
	a, err := analyzeText(src, schemas, params)
	if err != nil {
		return nil, nil, err
	}
	phys, err := compileAnalysis(a, params, syms, opts...)
	if err != nil {
		return nil, nil, err
	}
	return phys, a, nil
}

// batchRows is the row count the planner assumes for a per-batch
// relation (__ivmins, __ivmdel, __ivmdelset); their distinct counts
// are clamped to it. Those relations hold one refresh's changes, which
// are small next to the EDB and the fixpoint whenever the refresh stays
// incremental: a batch past the churn crossover recomputes instead.
// Costed at their source's size, the re-derive rule's delta variant
// would probe the post-delete EDB before the killed set, indexing it on
// one more column on every deleting refresh; at batch scale the batch
// keeps driving and the rest joins by index.
const batchRows = 64

// viewStats is the statistics provider a view plans its delta programs
// with. It maps the rewrite's synthetic relations back to the view's
// state: an `__ivmnew`/`__ivmold` snapshot reads its base relation's
// statistics, a seed slice reads its predicate's fixpoint, and the
// per-batch relations are costed at batch scale.
type viewStats struct {
	base *engine.PreparedBase
	fix  map[string]relStats // the initial fixpoint, per IDB predicate
}

type relStats struct {
	rows     int
	distinct []int
}

func (s *viewStats) RelStats(name string) (rows int, distinct []int, ok bool) {
	i := strings.Index(name, "__ivm")
	if i < 0 {
		return s.base.RelStats(name)
	}
	pred, suffix := name[:i], name[i:]
	switch {
	case suffix == newSuffix || suffix == oldSuffix:
		return s.base.RelStats(pred)
	case strings.HasPrefix(suffix, sliceInfix):
		st, ok := s.fix[pred]
		return st.rows, st.distinct, ok
	case suffix == insSuffix || suffix == delSuffix || suffix == delsetSuffix:
		if rows, distinct, ok = s.base.RelStats(pred); !ok {
			st, isIDB := s.fix[pred]
			if !isIDB {
				return 0, nil, false
			}
			rows, distinct = st.rows, st.distinct
		}
		rows = min(rows, batchRows)
		clamped := make([]int, len(distinct))
		for c, d := range distinct {
			clamped[c] = min(d, rows)
		}
		return rows, clamped, true
	}
	return 0, nil, false
}

// New materializes the initial fixpoint from the given EDB contents
// (tuples are deduplicated into multiset mirrors; duplicates count as
// multiplicity) and compiles the view's programs. The full program is
// planned with the EDB's statistics; the delta programs are planned
// after the fixpoint exists, with viewStats.
func New(ctx context.Context, cfg Config, edb map[string][]storage.Tuple) (*View, error) {
	if cfg.Syms == nil {
		cfg.Syms = storage.NewSymbolTable()
	}
	a, err := analyzeText(cfg.Source, cfg.Schemas, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("ivm: compile %s: %w", cfg.Name, err)
	}
	v := &View{
		cfg:       cfg,
		crossover: cfg.Crossover,
		analysis:  a,
		mirrors:   make(map[string]*storage.CountedSetRelation),
		idx:       make(map[string]*liveIndex),
		edb:       make(map[string][]storage.Tuple),
		dirty:     make(map[string]bool),
	}
	if v.crossover == 0 {
		v.crossover = defaultCrossover
	}
	for rel := range a.EDB {
		sch := cfg.Schemas[rel]
		if sch == nil {
			return nil, fmt.Errorf("ivm: %s: no schema for relation %s", cfg.Name, rel)
		}
		mir := storage.NewCountedSetRelation(sch)
		for _, t := range edb[rel] {
			mir.Add(t)
		}
		v.mirrors[rel] = mir
		v.edb[rel] = mir.LiveSnapshot()
	}
	v.base = engine.NewPreparedBase(cfg.Schemas, v.edb)
	if v.full, err = compileAnalysis(a, cfg.Params, cfg.Syms, plan.WithStats(v.base)); err != nil {
		return nil, fmt.Errorf("ivm: compile %s: %w", cfg.Name, err)
	}
	res, err := v.materialize(ctx)
	if err != nil {
		return nil, err
	}

	v.reason = ineligible(a)
	v.stats.Ineligible = v.reason
	if v.reason == "" {
		v.rw = buildRewrite(a)
		fix := make(map[string]relStats, len(res.Relations))
		for pred, ts := range res.Relations {
			fix[pred] = relStats{rows: len(ts), distinct: storage.ColumnDistincts(ts, runtime.GOMAXPROCS(0))}
		}
		stats := plan.WithStats(&viewStats{base: v.base, fix: fix})
		if v.insProg, _, err = compileText(v.rw.Ins.Source, cfg.Schemas, cfg.Params, cfg.Syms, stats); err != nil {
			return nil, fmt.Errorf("ivm: compile insert program for %s: %w", cfg.Name, err)
		}
		if v.delProg, _, err = compileText(v.rw.Del.Source, cfg.Schemas, cfg.Params, cfg.Syms, stats); err != nil {
			return nil, fmt.Errorf("ivm: compile delete program for %s: %w", cfg.Name, err)
		}
		if v.redProg, _, err = compileText(v.rw.Red.Source, cfg.Schemas, cfg.Params, cfg.Syms, stats); err != nil {
			return nil, fmt.Errorf("ivm: compile rederive program for %s: %w", cfg.Name, err)
		}
	}
	return v, nil
}

// materialize runs the full program over the current snapshots and
// (re)builds the counted fixpoints. Caller holds the lock (or is New).
func (v *View) materialize(ctx context.Context) (*engine.Result, error) {
	opts := v.cfg.Opts
	opts.Base = v.base
	opts.Probers = nil
	res, err := engine.RunContext(ctx, v.full, v.edb, opts)
	if err != nil {
		v.stale = true
		return nil, err
	}
	fix := make(map[string]*storage.CountedSetRelation, len(res.Relations))
	for pred, tuples := range res.Relations {
		sch := v.analysis.Schemas[pred]
		cs := storage.NewCountedSetRelation(sch)
		for _, t := range tuples {
			cs.Add(t)
		}
		fix[pred] = cs
	}
	v.fix = fix
	v.idx = make(map[string]*liveIndex)
	v.stale = false
	return res, nil
}

// Apply queues mutations; they take effect at the next Refresh.
// Unknown relations are rejected.
func (v *View) Apply(muts []Mutation) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, m := range muts {
		mir := v.mirrors[m.Rel]
		if mir == nil {
			return fmt.Errorf("ivm: %s: relation %s is not part of the view", v.cfg.Name, m.Rel)
		}
		if len(m.Tuple) != mir.Schema().Arity() {
			return fmt.Errorf("ivm: %s: %s arity mismatch: got %d, want %d",
				v.cfg.Name, m.Rel, len(m.Tuple), mir.Schema().Arity())
		}
	}
	v.pending = append(v.pending, muts...)
	return nil
}

// Pending reports queued, not yet refreshed mutations.
func (v *View) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.pending)
}

// Relations lists the view's IDB predicates, sorted.
func (v *View) Relations() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.fix))
	for pred := range v.fix {
		out = append(out, pred)
	}
	sort.Strings(out)
	return out
}

// Relation returns the live tuples of one IDB predicate (a fresh
// slice; tuples alias the view's arenas and must not be mutated).
func (v *View) Relation(pred string) []storage.Tuple {
	v.mu.Lock()
	defer v.mu.Unlock()
	fx := v.fix[pred]
	if fx == nil {
		return nil
	}
	return fx.LiveSnapshot()
}

// EDBRelations lists the extensional relations the view depends on,
// sorted.
func (v *View) EDBRelations() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.mirrors))
	for rel := range v.mirrors {
		out = append(out, rel)
	}
	sort.Strings(out)
	return out
}

// Schema returns the schema of one of the view's relations (IDB or
// EDB), nil when unknown.
func (v *View) Schema(pred string) *storage.Schema {
	return v.analysis.Schemas[pred]
}

// EDBRelation returns the live tuples of one mirrored EDB relation.
func (v *View) EDBRelation(rel string) []storage.Tuple {
	v.mu.Lock()
	defer v.mu.Unlock()
	mir := v.mirrors[rel]
	if mir == nil {
		return nil
	}
	return mir.LiveSnapshot()
}

// Stats returns the cumulative counters.
func (v *View) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	st := v.stats
	st.Pending = len(v.pending)
	st.Stale = v.stale
	return st
}

// index returns (building if needed) the live index of pred on cols.
func (v *View) index(pred string, cols []int) *liveIndex {
	key := fmt.Sprintf("%s|%v", pred, cols)
	ix := v.idx[key]
	if ix == nil || ix.rel != v.fix[pred] {
		ix = newLiveIndex(v.fix[pred], cols)
		v.idx[key] = ix
	}
	return ix
}

// computeSlice materializes one seed slice: the live tuples of the
// spec's predicate joining the batch on the anchor columns.
func (v *View) computeSlice(spec sliceSpec, src []storage.Tuple, st *RefreshStats) []storage.Tuple {
	fx := v.fix[spec.Pred]
	if fx == nil || len(src) == 0 {
		return nil
	}
	if len(spec.Anchor) == 0 {
		st.FullSlices++
		return fx.LiveSnapshot()
	}
	ix := v.index(spec.Pred, spec.Anchor)
	ix.extend()
	seen := make([]uint64, (fx.Len()+63)/64)
	key := make([]storage.Value, len(spec.SrcCols))
	// Batch tuples often share their anchor key — every killed tc(X, _)
	// of one X — so each distinct key's matches are walked once.
	probed := storage.NewSetRelation(storage.NewSchema(spec.Name, make([]storage.Column, len(key))...))
	defer probed.Release()
	var out []storage.Tuple
	for _, t := range src {
		for i, c := range spec.SrcCols {
			key[i] = t[c]
		}
		if !probed.Insert(key) {
			continue
		}
		ix.probe(key, func(ord int32, tt storage.Tuple) {
			if seen[ord/64]&(1<<(ord%64)) != 0 {
				return
			}
			seen[ord/64] |= 1 << (ord % 64)
			out = append(out, tt)
		})
	}
	return out
}

// drain applies pending mutations to the mirrors and returns the
// batch's net set-level deltas (tuples that crossed the live boundary).
func (v *View) drain() (netIns, netDel map[string][]storage.Tuple) {
	type touchRel struct {
		set     *storage.SetRelation
		wasLive []bool
	}
	touched := map[string]*touchRel{}
	for _, m := range v.pending {
		mir := v.mirrors[m.Rel]
		tr := touched[m.Rel]
		if tr == nil {
			tr = &touchRel{set: storage.NewSetRelation(mir.Schema())}
			touched[m.Rel] = tr
		}
		if _, added := tr.set.InsertHashed(m.Tuple.Hash(), m.Tuple); added {
			tr.wasLive = append(tr.wasLive, mir.ContainsLive(m.Tuple))
		}
		if m.Delete {
			mir.Remove(m.Tuple)
		} else {
			mir.Add(m.Tuple)
		}
		v.dirty[m.Rel] = true
	}
	v.pending = v.pending[:0]
	netIns, netDel = map[string][]storage.Tuple{}, map[string][]storage.Tuple{}
	for rel, tr := range touched {
		mir := v.mirrors[rel]
		for i := 0; i < tr.set.Len(); i++ {
			t := tr.set.At(i)
			now := mir.ContainsLive(t)
			switch {
			case tr.wasLive[i] && !now:
				netDel[rel] = append(netDel[rel], t)
			case !tr.wasLive[i] && now:
				netIns[rel] = append(netIns[rel], t)
			}
		}
	}
	return netIns, netDel
}

// Refresh brings the view up to date with every queued mutation. Small
// batches run the delta pipeline (over-delete → re-derive → insert);
// ineligible programs, stale views, and batches past the churn
// crossover recompute from scratch. On error (including context
// cancellation) the view is marked stale and the next Refresh
// recomputes; queued mutations are never lost.
func (v *View) Refresh(ctx context.Context) (RefreshStats, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	start := time.Now()
	netIns, netDel := v.drain()
	var st RefreshStats
	for _, ts := range netIns {
		st.InsTuples += len(ts)
	}
	for _, ts := range netDel {
		st.DelTuples += len(ts)
	}
	if st.InsTuples+st.DelTuples == 0 && !v.stale {
		st.Mode = "noop"
		st.Duration = time.Since(start)
		v.recordRefresh(st)
		return st, nil
	}

	// Churn over the mutated relations' pre-batch live sizes.
	preLive := 0
	for rel := range v.dirty {
		preLive += v.mirrors[rel].Live() - len(netIns[rel]) + len(netDel[rel])
	}
	churn := float64(st.InsTuples+st.DelTuples) / float64(max(1, preLive))

	reason := ""
	switch {
	case v.reason != "":
		reason = v.reason
	case v.crossover < 0:
		reason = "incremental maintenance disabled"
	case v.stale:
		reason = "view stale after a failed refresh"
	case churn > v.crossover:
		reason = fmt.Sprintf("churn %.2f past crossover %.2f", churn, v.crossover)
	}
	if reason != "" {
		st.Mode, st.Reason = "full", reason
		err := v.recompute(ctx, &st)
		st.Duration = time.Since(start)
		if err != nil {
			return st, err
		}
		v.recordRefresh(st)
		return st, nil
	}

	st.Mode = "incremental"
	if err := v.incremental(ctx, netIns, netDel, &st); err != nil {
		if errors.Is(err, errOverDeleteBudget) {
			// The DEL run outran its budget before touching any view
			// state: counting DRed was heading for recompute-scale work
			// at delta-kernel prices, so recompute directly instead.
			st.Mode, st.Reason = "full", "over-delete outran its budget"
			st.OverDeleted, st.Rederived = 0, 0
			if rerr := v.recompute(ctx, &st); rerr != nil {
				v.stale = true
				st.Duration = time.Since(start)
				return st, rerr
			}
			st.Duration = time.Since(start)
			v.recordRefresh(st)
			return st, nil
		}
		v.stale = true
		st.Duration = time.Since(start)
		return st, err
	}
	st.DeltaTuples = st.Added + st.OverDeleted + st.Rederived
	st.Duration = time.Since(start)
	v.recordRefresh(st)
	return st, nil
}

func (v *View) recordRefresh(st RefreshStats) {
	v.stats.Refreshes++
	switch st.Mode {
	case "incremental":
		v.stats.Incremental++
	case "full":
		v.stats.Full++
	}
	v.stats.DeltaTuples += int64(st.DeltaTuples)
	v.stats.Last = st
}

// recompute rebuilds snapshots for dirty relations from the mirrors,
// rebases the prepared base (unmutated relations keep their memoized
// indexes), and re-runs the full program, adding its work to st.
func (v *View) recompute(ctx context.Context, st *RefreshStats) error {
	edb := make(map[string][]storage.Tuple, len(v.edb))
	for rel, ts := range v.edb {
		if v.dirty[rel] {
			edb[rel] = v.mirrors[rel].LiveSnapshot()
		} else {
			edb[rel] = ts
		}
	}
	base := v.base.Rebase(v.cfg.Schemas, edb, v.dirty)
	old := v.base
	v.base, v.edb = base, edb
	res, err := v.materialize(ctx)
	if err != nil {
		v.base = old // keep index reuse possible; snapshots stay current
		return err
	}
	st.addRun(&res.Stats, nil)
	v.dirty = make(map[string]bool)
	return nil
}

// errOverDeleteBudget aborts an incremental refresh whose DEL run
// outgrew its budget; Refresh catches it and recomputes instead. The
// abort happens before any Kill, so view state is untouched.
var errOverDeleteBudget = errors.New("ivm: over-delete outran its budget")

// overDeleteBudget caps the DEL run's derived tuples. Deleting inside
// a dense strongly connected component over-deletes a fixpoint-sized
// support set and re-derives most of it — strictly slower than the
// recompute it is meant to avoid. Aborting once the over-delete set
// grows past a fraction of the maintained fixpoint turns that cliff
// into one bounded probe plus a recompute.
func (v *View) overDeleteBudget(del int) int64 {
	live := 0
	for _, fx := range v.fix {
		live += fx.Live()
	}
	return int64(live/8 + 4*del + 256)
}

// incremental runs the delete → re-derive → insert pipeline for one
// net batch. Caller holds the lock.
func (v *View) incremental(ctx context.Context, netIns, netDel map[string][]storage.Tuple, st *RefreshStats) error {
	// Mid snapshots: post-delete, pre-insert.
	mid := make(map[string][]storage.Tuple)
	final := make(map[string][]storage.Tuple)
	for rel := range v.dirty {
		cur := v.edb[rel]
		if dels := netDel[rel]; len(dels) > 0 {
			gone := storage.NewSetRelation(v.mirrors[rel].Schema())
			for _, t := range dels {
				gone.Insert(t)
			}
			kept := make([]storage.Tuple, 0, len(cur)-len(dels))
			for _, t := range cur {
				if !gone.Contains(t) {
					kept = append(kept, t)
				}
			}
			mid[rel] = kept
		} else {
			mid[rel] = cur
		}
		fin := make([]storage.Tuple, 0, len(mid[rel])+len(netIns[rel]))
		fin = append(fin, mid[rel]...)
		fin = append(fin, netIns[rel]...)
		final[rel] = fin
	}

	// Over-delete + re-derive.
	if st.DelTuples > 0 {
		phase := time.Now()
		rels := make(map[string]engine.DerivedRel, 2*len(v.edb))
		for rel := range v.edb {
			rels[rel+oldSuffix] = engine.DerivedRel{SameAs: rel}
			if m, ok := mid[rel]; ok {
				rels[rel+newSuffix] = engine.DerivedRel{Tuples: m}
			} else {
				rels[rel+newSuffix] = engine.DerivedRel{SameAs: rel}
			}
		}
		derived := v.base.Derive(rels)
		edb := make(map[string][]storage.Tuple)
		for rel, ts := range netDel {
			edb[rel+delSuffix] = ts
		}
		for _, spec := range v.rw.Del.Slices {
			rel := spec.Src[:len(spec.Src)-len(delSuffix)]
			edb[spec.Name] = v.computeSlice(spec, netDel[rel], st)
		}
		opts := v.cfg.Opts
		opts.Base = derived
		if b := v.overDeleteBudget(st.DelTuples); opts.MaxTuples == 0 || b < opts.MaxTuples {
			opts.MaxTuples = b
		}
		res, err := engine.RunContext(ctx, v.delProg, edb, opts)
		if err != nil {
			if errors.Is(err, engine.ErrBudgetExceeded) {
				return errOverDeleteBudget
			}
			return err
		}
		st.addRun(&res.Stats, &st.DelProbe)
		opts.MaxTuples = v.cfg.Opts.MaxTuples
		killed := make(map[string][]storage.Tuple)
		for dname, orig := range v.rw.Del.Deltas {
			fx := v.fix[orig]
			for _, t := range res.Relations[dname] {
				if fx.Kill(t) {
					killed[orig] = append(killed[orig], t)
					st.OverDeleted++
				}
			}
		}
		st.DelDuration = time.Since(phase)

		if st.OverDeleted > 0 {
			phase = time.Now()
			edb := make(map[string][]storage.Tuple)
			for orig, ts := range killed {
				edb[orig+delsetSuffix] = ts
			}
			for _, spec := range v.rw.Red.Slices {
				orig := spec.Src[:len(spec.Src)-len(delsetSuffix)]
				edb[spec.Name] = v.computeSlice(spec, killed[orig], st)
			}
			res, err := engine.RunContext(ctx, v.redProg, edb, opts)
			if err != nil {
				return err
			}
			st.addRun(&res.Stats, &st.RedProbe)
			for rname, orig := range v.rw.Red.Deltas {
				fx := v.fix[orig]
				for _, t := range res.Relations[rname] {
					if fx.Revive(t) {
						st.Rederived++
					}
				}
			}
			st.RedDuration = time.Since(phase)
		}
	}

	// Rebase onto the final snapshots; unmutated relations keep their
	// settled indexes.
	finalEDB := make(map[string][]storage.Tuple, len(v.edb))
	for rel, ts := range v.edb {
		if f, ok := final[rel]; ok {
			finalEDB[rel] = f
		} else {
			finalEDB[rel] = ts
		}
	}
	base := v.base.Rebase(v.cfg.Schemas, finalEDB, v.dirty)

	// Insert pass: net-new tuples seed the semi-naive delta machinery;
	// the live guard probes the maintained fixpoint via the prober
	// hook, so already-live derivations neither re-emit nor propagate.
	if st.InsTuples > 0 {
		phase := time.Now()
		edb := make(map[string][]storage.Tuple)
		for rel, ts := range netIns {
			edb[rel+insSuffix] = ts
		}
		for _, spec := range v.rw.Ins.Slices {
			rel := spec.Src[:len(spec.Src)-len(insSuffix)]
			edb[spec.Name] = v.computeSlice(spec, netIns[rel], st)
		}
		opts := v.cfg.Opts
		opts.Base = base
		opts.Probers = make(map[string]engine.MembershipProber, len(v.fix))
		for pred, fx := range v.fix {
			opts.Probers[pred+liveSuffix] = fx
		}
		res, err := engine.RunContext(ctx, v.insProg, edb, opts)
		if err != nil {
			return err
		}
		st.addRun(&res.Stats, &st.InsProbe)
		for dname, orig := range v.rw.Ins.Deltas {
			fx := v.fix[orig]
			for _, t := range res.Relations[dname] {
				if _, fresh, revived := fx.Add(t); fresh || revived {
					st.Added++
				} else {
					// Guarded program should not re-derive live tuples;
					// tolerate (set semantics) but do not count.
					fx.Remove(t)
				}
			}
		}
		st.InsDuration = time.Since(phase)
	}

	v.base = base
	v.edb = finalEDB
	v.dirty = make(map[string]bool)
	return nil
}
