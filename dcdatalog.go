// Package dcdatalog is a parallel Datalog engine for shared-memory
// multicore machines, reproducing DCDatalog (Wu, Wang, Zaniolo —
// "Optimizing Parallel Recursive Datalog Evaluation on Multicore
// Machines", SIGMOD 2022).
//
// Programs are sets of rules with recursion, stratified negation and
// monotone aggregates in recursion (min, max, count, and the keyed sum
// of PageRank). Evaluation is parallel semi-naive over hash-partitioned
// worker goroutines exchanging deltas through single-producer
// single-consumer rings, coordinated by the paper's Dynamic
// Weight-based Strategy (default) or the Global/SSP baselines.
//
// Quick start:
//
//	db := dcdatalog.NewDatabase()
//	db.MustDeclare("arc", dcdatalog.Col("x", dcdatalog.Int), dcdatalog.Col("y", dcdatalog.Int))
//	db.MustLoad("arc", [][]any{{1, 2}, {2, 3}})
//	res, err := db.Query(`
//		tc(X, Y) :- arc(X, Y).
//		tc(X, Y) :- tc(X, Z), arc(Z, Y).
//	`)
//	rows := res.Rows("tc") // [[1 2] [1 3] [2 3]]
package dcdatalog

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/engine"
	"repro/internal/ivm"
	"repro/internal/parser"
	"repro/internal/pcg"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// Type is a column type.
type Type = storage.Type

// Column types.
const (
	// Int is a 64-bit signed integer column.
	Int = storage.TInt
	// Float is a 64-bit IEEE-754 column.
	Float = storage.TFloat
	// Sym is an interned string column.
	Sym = storage.TSym
)

// Tuple is one row of a relation (raw 64-bit values; see Result.Rows
// for decoded access).
type Tuple = storage.Tuple

// Column describes one attribute of a relation.
type Column = storage.Column

// Col builds a column descriptor.
func Col(name string, t Type) Column { return Column{Name: name, Type: t} }

// Strategy selects the parallel coordination scheme.
type Strategy = coord.Kind

// Coordination strategies.
const (
	// Global coordinates with a barrier after every global iteration
	// (the DeALS-MC scheme).
	Global = coord.Global
	// SSP bounds staleness by a fixed slack s.
	SSP = coord.SSP
	// DWS is the paper's dynamic weight-based strategy (default).
	DWS = coord.DWS
)

// Database holds extensional relations and interned symbols.
type Database struct {
	syms *storage.SymbolTable

	// mu guards schemas, data and views. Loads and mutations take the
	// write lock; queries snapshot slice headers under the read lock.
	mu      sync.RWMutex
	schemas map[string]*storage.Schema
	data    map[string][]storage.Tuple
	views   map[string]*View

	// The shared prepared-base plane: one immutable snapshot of the
	// loaded relations plus a memoized per-lookup-signature index
	// cache, shared by every Prepared/Query on this database. version
	// bumps on every mutation so a stale snapshot is rebuilt rather
	// than served; changed tracks WHICH relations moved, so the rebuild
	// rebases — dropping only their index entries — instead of starting
	// cold.
	baseMu      sync.Mutex
	version     int64
	base        *engine.PreparedBase
	baseVersion int64
	changed     map[string]bool
	changedAll  bool
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		syms:    storage.NewSymbolTable(),
		schemas: make(map[string]*storage.Schema),
		data:    make(map[string][]storage.Tuple),
		views:   make(map[string]*View),
	}
}

// dirty records a mutation of the named relations (none = everything),
// invalidating their slice of the prepared-base snapshot.
func (db *Database) dirty(names ...string) {
	db.baseMu.Lock()
	db.version++
	if len(names) == 0 {
		db.changedAll = true
	} else {
		if db.changed == nil {
			db.changed = make(map[string]bool)
		}
		for _, n := range names {
			db.changed[n] = true
		}
	}
	db.baseMu.Unlock()
}

// snapshotData copies the relation map (slice headers only; appends
// happen on fresh backing past each snapshot's length, deletes swap in
// new slices, so a snapshot never observes later mutations).
func (db *Database) snapshotData() map[string][]storage.Tuple {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return maps.Clone(db.data)
}

// sharedBase returns the database's prepared base, (re)snapshotting if
// relations were mutated since the last call. When only some relations
// changed, the new base is a Rebase of the old: untouched relations
// keep their memoized indexes and only the changed ones rebuild on
// next use.
func (db *Database) sharedBase() *engine.PreparedBase {
	db.baseMu.Lock()
	defer db.baseMu.Unlock()
	if db.base == nil || db.baseVersion != db.version {
		data := db.snapshotData()
		if db.base != nil && !db.changedAll {
			db.base = db.base.Rebase(db.schemas, data, db.changed)
		} else {
			db.base = engine.NewPreparedBase(db.schemas, data)
		}
		db.changed = nil
		db.changedAll = false
		db.baseVersion = db.version
	}
	return db.base
}

// Prewarm snapshots the current relations into the shared
// prepared-base plane eagerly, so the first query pays only index
// builds, not snapshotting. Loading more data after Prewarm simply
// invalidates the snapshot; long-lived services (the dcserve dataset
// registry) call this once at registration time.
func (db *Database) Prewarm() { db.sharedBase() }

// BaseStats reports the shared EDB index cache counters: how many
// per-run index requests were served from the cache (Hits), how many
// performed a build (Misses), and how many distinct indexes are
// resident.
type BaseStats = engine.BaseStats

// BaseStats returns the database's current index-cache counters.
func (db *Database) BaseStats() BaseStats { return db.sharedBase().Stats() }

// Declare registers an extensional relation's schema.
func (db *Database) Declare(name string, cols ...Column) error {
	if len(cols) == 0 {
		return fmt.Errorf("dcdatalog: relation %q needs at least one column", name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.schemas[name]; ok {
		return fmt.Errorf("dcdatalog: relation %q already declared", name)
	}
	db.schemas[name] = storage.NewSchema(name, cols...)
	return nil
}

// MustDeclare is Declare that panics on error.
func (db *Database) MustDeclare(name string, cols ...Column) {
	if err := db.Declare(name, cols...); err != nil {
		panic(err)
	}
}

// DeclareSchema registers a prebuilt schema (as produced by
// internal/queries).
func (db *Database) DeclareSchema(s *storage.Schema) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.schemas[s.Name]; ok {
		return fmt.Errorf("dcdatalog: relation %q already declared", s.Name)
	}
	db.schemas[s.Name] = s
	return nil
}

// encodeRows converts Go value rows to tuples per the schema.
func (db *Database) encodeRows(name string, rows [][]any) ([]storage.Tuple, error) {
	db.mu.RLock()
	schema, ok := db.schemas[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dcdatalog: relation %q is not declared", name)
	}
	tuples := make([]storage.Tuple, 0, len(rows))
	for _, row := range rows {
		if len(row) != schema.Arity() {
			return nil, fmt.Errorf("dcdatalog: %s expects %d columns, got %d", name, schema.Arity(), len(row))
		}
		t := make(storage.Tuple, len(row))
		for i, v := range row {
			val, err := db.encode(v, schema.ColType(i))
			if err != nil {
				return nil, fmt.Errorf("dcdatalog: %s column %d: %v", name, i+1, err)
			}
			t[i] = val
		}
		tuples = append(tuples, t)
	}
	return tuples, nil
}

// mutate is the single write path: it applies the tuple batch to the
// relation, invalidates only that relation's slice of the prepared
// base, and forwards the change to every materialized view depending on
// it (views pick it up at their next Refresh). Deletes remove one
// occurrence per given tuple (multiset semantics); deleting an absent
// tuple is a no-op.
func (db *Database) mutate(name string, tuples []storage.Tuple, del bool) error {
	db.mu.Lock()
	schema, ok := db.schemas[name]
	if !ok {
		db.mu.Unlock()
		return fmt.Errorf("dcdatalog: relation %q is not declared", name)
	}
	for _, t := range tuples {
		if len(t) != schema.Arity() {
			db.mu.Unlock()
			return fmt.Errorf("dcdatalog: %s expects arity %d, got %d", name, schema.Arity(), len(t))
		}
	}
	if del {
		batch := storage.NewCountedSetRelation(schema)
		for _, t := range tuples {
			batch.Add(t)
		}
		cur := db.data[name]
		kept := make([]storage.Tuple, 0, len(cur))
		for _, t := range cur {
			if present, _ := batch.Remove(t); present {
				continue
			}
			kept = append(kept, t)
		}
		db.data[name] = kept
	} else {
		db.data[name] = append(db.data[name], tuples...)
	}
	var notify []*View
	for _, v := range db.views {
		if v.deps[name] {
			notify = append(notify, v)
		}
	}
	db.mu.Unlock()
	db.dirty(name)
	muts := make([]ivm.Mutation, len(tuples))
	for i, t := range tuples {
		muts[i] = ivm.Mutation{Rel: name, Tuple: t, Delete: del}
	}
	for _, v := range notify {
		if err := v.v.Apply(muts); err != nil {
			return err
		}
	}
	return nil
}

// Load appends rows to a declared relation, converting Go values
// (int/int64/float64/string) per the schema.
func (db *Database) Load(name string, rows [][]any) error {
	tuples, err := db.encodeRows(name, rows)
	if err != nil {
		return err
	}
	return db.mutate(name, tuples, false)
}

// MustLoad is Load that panics on error.
func (db *Database) MustLoad(name string, rows [][]any) {
	if err := db.Load(name, rows); err != nil {
		panic(err)
	}
}

// LoadTuples appends pre-encoded tuples (bulk path for generators).
func (db *Database) LoadTuples(name string, tuples []Tuple) error {
	return db.mutate(name, tuples, false)
}

// Insert appends rows to a declared relation. Unlike Load it is meant
// for the mutation path of a live service: it invalidates only this
// relation's memoized indexes and feeds materialized views' delta
// queues.
func (db *Database) Insert(name string, rows [][]any) error {
	return db.Load(name, rows)
}

// InsertTuples is Insert for pre-encoded tuples.
func (db *Database) InsertTuples(name string, tuples []Tuple) error {
	return db.mutate(name, tuples, false)
}

// Delete removes one occurrence of each given row from a relation
// (multiset semantics; absent rows are no-ops).
func (db *Database) Delete(name string, rows [][]any) error {
	tuples, err := db.encodeRows(name, rows)
	if err != nil {
		return err
	}
	return db.mutate(name, tuples, true)
}

// DeleteTuples is Delete for pre-encoded tuples.
func (db *Database) DeleteTuples(name string, tuples []Tuple) error {
	return db.mutate(name, tuples, true)
}

// LoadTSV reads tab- or whitespace-separated rows into a declared
// relation.
func (db *Database) LoadTSV(name string, r io.Reader) error {
	tuples, err := db.ParseTSV(name, r)
	if err != nil {
		return err
	}
	return db.mutate(name, tuples, false)
}

// ParseTSV decodes tab- or whitespace-separated rows per a declared
// relation's schema without mutating the database. It feeds the
// insert/delete mutation paths of services that receive rows as text.
func (db *Database) ParseTSV(name string, r io.Reader) ([]Tuple, error) {
	db.mu.RLock()
	schema, ok := db.schemas[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dcdatalog: relation %q is not declared", name)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	var tuples []storage.Tuple
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != schema.Arity() {
			return nil, fmt.Errorf("dcdatalog: %s line %d: %d fields, want %d", name, line, len(fields), schema.Arity())
		}
		t := make(storage.Tuple, len(fields))
		for i, f := range fields {
			switch schema.ColType(i) {
			case storage.TInt:
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("dcdatalog: %s line %d: %v", name, line, err)
				}
				t[i] = storage.IntVal(v)
			case storage.TFloat:
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("dcdatalog: %s line %d: %v", name, line, err)
				}
				t[i] = storage.FloatVal(v)
			default:
				t[i] = storage.SymVal(db.syms.Intern(f))
			}
		}
		tuples = append(tuples, t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tuples, nil
}

// Len reports the number of tuples currently stored in an extensional
// relation (0 when undeclared or empty).
func (db *Database) Len(name string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.data[name])
}

// Relation returns the loaded tuples of an extensional relation. The
// result is a deep copy: mutating it (or the tuples inside) cannot
// corrupt the database's storage or any snapshot a running query holds.
func (db *Database) Relation(name string) []Tuple {
	db.mu.RLock()
	defer db.mu.RUnlock()
	src := db.data[name]
	if src == nil {
		return nil
	}
	out := make([]Tuple, len(src))
	for i, t := range src {
		c := make(storage.Tuple, len(t))
		copy(c, t)
		out[i] = c
	}
	return out
}

func (db *Database) encode(v any, t Type) (storage.Value, error) {
	switch x := v.(type) {
	case int:
		if t == storage.TFloat {
			return storage.FloatVal(float64(x)), nil
		}
		return storage.IntVal(int64(x)), nil
	case int64:
		if t == storage.TFloat {
			return storage.FloatVal(float64(x)), nil
		}
		return storage.IntVal(x), nil
	case float64:
		if t != storage.TFloat {
			return 0, fmt.Errorf("float value for %s column", t)
		}
		return storage.FloatVal(x), nil
	case string:
		if t != storage.TSym {
			return 0, fmt.Errorf("string value for %s column", t)
		}
		return storage.SymVal(db.syms.Intern(x)), nil
	default:
		return 0, fmt.Errorf("unsupported value type %T", v)
	}
}

// config collects query options.
type config struct {
	opts      engine.Options
	params    map[string]physical.Param
	broadcast bool
	crossover float64
	noDemand  bool
	// demand records the outcome of the demand (magic-set) rewrite
	// compile ran — applied, or declined with reasons.
	demand *rewrite.Result
}

// Option configures one query execution.
type Option func(*config, *Database) error

// WithWorkers sets the number of parallel workers.
func WithWorkers(n int) Option {
	return func(c *config, _ *Database) error { c.opts.Workers = n; return nil }
}

// WithStrategy selects the coordination strategy.
func WithStrategy(s Strategy) Option {
	return func(c *config, _ *Database) error { c.opts.Strategy = s; return nil }
}

// WithSlack sets the SSP staleness bound s.
func WithSlack(s int) Option {
	return func(c *config, _ *Database) error { c.opts.Slack = s; return nil }
}

// WithMaxWait caps DWS's per-decision wait budget τ.
func WithMaxWait(d time.Duration) Option {
	return func(c *config, _ *Database) error { c.opts.MaxWait = d; return nil }
}

// WithBatchSize sets the tuple count per exchanged message.
func WithBatchSize(n int) Option {
	return func(c *config, _ *Database) error { c.opts.BatchSize = n; return nil }
}

// WithEpsilon sets the convergence threshold for float sum aggregates.
func WithEpsilon(eps float64) Option {
	return func(c *config, _ *Database) error { c.opts.Epsilon = eps; return nil }
}

// WithMaxIterations bounds local iterations per worker (0 = fixpoint).
func WithMaxIterations(n int) Option {
	return func(c *config, _ *Database) error { c.opts.MaxLocalIters = n; return nil }
}

// WithMaxTuples bounds the total tuples exchanged per stratum (0 =
// unbounded); exceeding the budget stops evaluation short of the
// fixpoint and marks the stratum capped, the out-of-memory analogue
// for diverging programs.
func WithMaxTuples(n int64) Option {
	return func(c *config, _ *Database) error { c.opts.MaxTuples = n; return nil }
}

// WithoutExistCache disables the existence-check cache (ablation).
func WithoutExistCache() Option {
	return func(c *config, _ *Database) error { c.opts.NoExistCache = true; return nil }
}

// WithoutIndexAgg disables index-assisted aggregate merges (ablation).
func WithoutIndexAgg() Option {
	return func(c *config, _ *Database) error { c.opts.NoIndexAgg = true; return nil }
}

// WithoutPartialAgg disables partial aggregation in Distribute
// (ablation).
func WithoutPartialAgg() Option {
	return func(c *config, _ *Database) error { c.opts.NoPartialAgg = true; return nil }
}

// WithoutStealing disables morsel-driven work stealing: every worker
// evaluates only the delta it gathered, as before the steal plane
// existed (ablation and differential testing; skewed workloads at
// multiple workers lose their load balancing).
func WithoutStealing() Option {
	return func(c *config, _ *Database) error { c.opts.StealOff = true; return nil }
}

// WithProbeGroup sets G, the number of independent probe chains each
// worker keeps in flight in the staged join pipeline (0 = default 16,
// 1 = serial probes, clamped at 32).
func WithProbeGroup(g int) Option {
	return func(c *config, _ *Database) error { c.opts.ProbeGroup = g; return nil }
}

// WithBroadcastReplication forces broadcast replication of recursive
// relations instead of aligned partitioning — the APSP strategy the
// paper attributes to SociaLite/DDlog, kept as a comparison baseline.
func WithBroadcastReplication() Option {
	return func(c *config, _ *Database) error { c.broadcast = true; return nil }
}

// WithCrossover sets a materialized view's churn crossover: the
// fraction of changed tuples (relative to the mutated relations' size)
// above which Refresh falls back to a full recompute instead of delta
// propagation. 0 keeps the default (0.3); negative disables incremental
// maintenance. Only meaningful with Materialize.
func WithCrossover(x float64) Option {
	return func(c *config, _ *Database) error { c.crossover = x; return nil }
}

// WithoutDemandRewrite disables the demand (magic-set) rewrite for
// this compilation: bound queries then evaluate the full fixpoint and
// filter afterwards, as before the rewrite existed (ablation and A/B
// benchmarking). Like WithParam, it is a compile-time option, fixed at
// Prepare.
func WithoutDemandRewrite() Option {
	return func(c *config, _ *Database) error { c.noDemand = true; return nil }
}

// WithParam binds a $parameter (int, int64, float64 or string).
func WithParam(name string, value any) Option {
	return func(c *config, db *Database) error {
		var p physical.Param
		switch x := value.(type) {
		case int:
			p = physical.Param{Value: storage.IntVal(int64(x)), Type: storage.TInt}
		case int64:
			p = physical.Param{Value: storage.IntVal(x), Type: storage.TInt}
		case float64:
			p = physical.Param{Value: storage.FloatVal(x), Type: storage.TFloat}
		case string:
			p = physical.Param{Value: storage.SymVal(db.syms.Intern(x)), Type: storage.TSym}
		default:
			return fmt.Errorf("dcdatalog: unsupported parameter type %T for $%s", value, name)
		}
		c.params[name] = p
		return nil
	}
}

// ErrBudgetExceeded is returned (alongside the partial Result) when a
// WithMaxTuples or WithMaxIterations budget fires with deltas still
// pending: the fixpoint was NOT reached and the result is truncated.
// Match with errors.Is.
var ErrBudgetExceeded = engine.ErrBudgetExceeded

// Stats summarizes an execution.
type Stats = engine.Stats

// Result is a query's materialized output.
type Result struct {
	db       *Database
	analysis *pcg.Analysis
	res      *engine.Result
	// demandRewritten mirrors Prepared.DemandRewritten for results
	// obtained through Query.
	demandRewritten bool
	// demandEst/demandActual pair the cost model's estimated base
	// derivations with the engine's actual counts (see
	// demandCardinalities).
	demandEst    int64
	demandActual int64
}

// DemandRewritten reports whether the executed program had the demand
// (magic-set) rewrite applied.
func (r *Result) DemandRewritten() bool { return r.demandRewritten }

// DemandCardinalities returns the planner's estimated base-rule
// derivations and the engine's matching actual derived-tuple count,
// summed over the strata where the cost model had statistics. Both are
// zero when no stratum was estimable.
func (r *Result) DemandCardinalities() (est, actual int64) {
	return r.demandEst, r.demandActual
}

// Relation returns the raw tuples of a derived relation.
func (r *Result) Relation(name string) []Tuple { return r.res.Relations[name] }

// Rows decodes a derived relation into Go values per its schema. The
// rows share one backing array; each is capped at its length, so an
// append to a row copies it instead of overwriting the next.
func (r *Result) Rows(name string) [][]any {
	schema := r.analysis.Schemas[name]
	tuples := r.res.Relations[name]
	out := make([][]any, len(tuples))
	if len(tuples) == 0 {
		return out
	}
	arity := schema.Arity()
	vals := make([]any, len(tuples)*arity)
	for i, t := range tuples {
		row := vals[:arity:arity]
		vals = vals[arity:]
		for j, v := range t {
			switch schema.ColType(j) {
			case storage.TFloat:
				row[j] = v.Float()
			case storage.TSym:
				if s, ok := r.db.syms.Lookup(v.Sym()); ok {
					row[j] = s
				} else {
					row[j] = v.Sym()
				}
			default:
				row[j] = v.Int()
			}
		}
		out[i] = row
	}
	return out
}

// Len returns the cardinality of a derived relation.
func (r *Result) Len(name string) int { return len(r.res.Relations[name]) }

// Stats returns execution statistics.
func (r *Result) Stats() Stats { return r.res.Stats }

// compile runs the full front end for a query.
func (db *Database) compile(src string, opts []Option) (*physical.Program, *pcg.Analysis, *config, error) {
	c := &config{params: make(map[string]physical.Param)}
	c.opts.Strategy = coord.DWS // the paper's strategy is the default
	for _, o := range opts {
		if err := o(c, db); err != nil {
			return nil, nil, nil, err
		}
	}
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, nil, nil, err
	}
	paramTypes := make(map[string]storage.Type, len(c.params))
	for k, p := range c.params {
		paramTypes[k] = p.Type
	}
	analysis, err := pcg.Analyze(prog, db.schemas, paramTypes)
	if err != nil {
		return nil, nil, nil, err
	}
	// Demand rewrite: when the program's recursive predicates are only
	// consumed through constant/$param-bound occurrences, guard the
	// recursion with magic predicates seeded from the bound values. The
	// rewritten program is plain Datalog and re-analyzes through pcg;
	// if that unexpectedly fails, fall back to the original program
	// rather than failing the query.
	if !c.noDemand {
		c.demand = rewrite.Apply(analysis)
		if c.demand.Rewritten() {
			ra, rerr := pcg.Analyze(c.demand.Program, db.schemas, paramTypes)
			if rerr != nil {
				c.demand.Program = nil
				c.demand.Declined = append(c.demand.Declined,
					fmt.Sprintf("rewritten program failed analysis: %v", rerr))
			} else {
				analysis = ra
			}
		}
	}
	bopts := []plan.BuildOption{plan.WithStats(db.sharedBase())}
	if c.broadcast {
		bopts = append(bopts, plan.WithForceBroadcast())
	}
	logical, err := plan.Build(analysis, bopts...)
	if err != nil {
		return nil, nil, nil, err
	}
	phys, err := physical.Compile(logical, c.params, db.syms)
	if err != nil {
		return nil, nil, nil, err
	}
	return phys, analysis, c, nil
}

// Prepared is a compiled program bound to its database: the parse,
// safety/stratification analysis, logical plan and physical compile
// have all run once, and the immutable physical.Program can be
// executed many times — concurrently — against the database's frozen
// relations. Parameters and replication strategy are baked in at
// Prepare; execution options (workers, strategy, budgets, timeouts)
// vary per Exec.
type Prepared struct {
	db        *Database
	phys      *physical.Program
	analysis  *pcg.Analysis
	opts      engine.Options
	params    map[string]physical.Param
	broadcast bool
	noDemand  bool
	demand    *rewrite.Result
}

// DemandRewritten reports whether Prepare applied the demand
// (magic-set) rewrite: the program's recursive cliques are guarded by
// generated magic predicates and derive only the demanded subset.
// Restricted relations (see DemandInfo) then hold that subset rather
// than the full fixpoint.
func (p *Prepared) DemandRewritten() bool {
	return p.demand != nil && p.demand.Rewritten()
}

// DemandInfo describes the demand rewrite's outcome: the generated
// magic predicates, the predicates whose extent is restricted to the
// demanded subset, and the per-clique reasons the rewrite was declined
// (all empty when compiled with WithoutDemandRewrite).
func (p *Prepared) DemandInfo() (magic, restricted, declined []string) {
	if p.demand == nil {
		return nil, nil, nil
	}
	for r := range p.demand.Restricted {
		restricted = append(restricted, r)
	}
	sort.Strings(restricted)
	return p.demand.Magic, restricted, p.demand.Declined
}

// Prepare compiles a program once for repeated execution. The returned
// Prepared is safe for concurrent Exec calls, including concurrent
// Insert/Delete mutations: each Exec captures the current prepared-base
// snapshot, and single-relation mutations invalidate only that
// relation's memoized indexes (the rest keep serving cache hits).
func (db *Database) Prepare(src string, opts ...Option) (*Prepared, error) {
	phys, analysis, c, err := db.compile(src, opts)
	if err != nil {
		return nil, err
	}
	db.sharedBase() // snapshot eagerly so Exec pays only index builds
	return &Prepared{
		db:        db,
		phys:      phys,
		analysis:  analysis,
		opts:      c.opts,
		params:    c.params,
		broadcast: c.broadcast,
		noDemand:  c.noDemand,
		demand:    c.demand,
	}, nil
}

// Exec runs the prepared program. Execution options may override the
// ones given at Prepare; compile-time options (WithParam,
// WithBroadcastReplication) are baked into the physical program and
// changing them here is an error — re-prepare instead. On budget
// truncation Exec returns the partial Result together with an error
// matching ErrBudgetExceeded; on context cancellation it returns a nil
// Result and an error matching ctx.Err().
func (p *Prepared) Exec(ctx context.Context, opts ...Option) (*Result, error) {
	c := &config{opts: p.opts, params: maps.Clone(p.params), broadcast: p.broadcast, noDemand: p.noDemand}
	for _, o := range opts {
		if err := o(c, p.db); err != nil {
			return nil, err
		}
	}
	if c.broadcast != p.broadcast || c.noDemand != p.noDemand || !paramsEqual(c.params, p.params) {
		return nil, fmt.Errorf("dcdatalog: parameters, replication and the demand rewrite are fixed at Prepare; re-prepare to change them")
	}
	c.opts.Base = p.db.sharedBase()
	res, err := engine.RunContext(ctx, p.phys, p.db.snapshotData(), c.opts)
	if res == nil {
		return nil, err
	}
	r := &Result{db: p.db, analysis: p.analysis, res: res, demandRewritten: p.DemandRewritten()}
	r.demandEst, r.demandActual = demandCardinalities(p.phys.Plan, res.Stats)
	return r, err
}

// demandCardinalities pairs the planner's estimated base derivations
// with the engine's actual derived-tuple counts, summed over the
// non-recursive strata where the cost model produced an estimate (the
// engine's per-stratum counter includes recursive derivations, so
// recursive strata are not comparable).
func demandCardinalities(lp *plan.Plan, stats engine.Stats) (est, actual int64) {
	for i, sp := range lp.Strata {
		if sp.EstBaseDerived < 0 || sp.Stratum.Recursive || i >= len(stats.Strata) {
			continue
		}
		est += sp.EstBaseDerived
		actual += stats.Strata[i].TuplesDerived
	}
	return est, actual
}

func paramsEqual(a, b map[string]physical.Param) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Query parses, plans and executes a program against the database.
func (db *Database) Query(src string, opts ...Option) (*Result, error) {
	return db.QueryContext(context.Background(), src, opts...)
}

// QueryContext is Query with cancellation: when ctx is canceled or
// its deadline passes, the parallel evaluation aborts mid-fixpoint —
// parked workers wake, gated workers bail, Global-strategy barriers
// release — and the call returns an error matching ctx.Err() (via
// errors.Is) instead of hanging on a diverging recursion.
func (db *Database) QueryContext(ctx context.Context, src string, opts ...Option) (*Result, error) {
	p, err := db.Prepare(src, opts...)
	if err != nil {
		return nil, err
	}
	return p.Exec(ctx)
}

// RefreshStats describes one materialized-view refresh (see
// internal/ivm).
type RefreshStats = ivm.RefreshStats

// ViewStats are a materialized view's cumulative refresh counters.
type ViewStats = ivm.Stats

// View is a registered materialized view: a program whose IDB fixpoint
// the database keeps warm across Insert/Delete mutations. Mutations of
// the view's extensional relations queue automatically; Refresh applies
// them — incrementally when the batch is small and the program is in
// the maintainable fragment, by full recompute otherwise.
type View struct {
	db   *Database
	name string
	deps map[string]bool
	v    *ivm.View
}

// Materialize compiles a program, runs it to fixpoint, and registers
// the result as a named materialized view. Execution options (workers,
// strategy, WithCrossover, ...) are baked in and used by every refresh.
func (db *Database) Materialize(name, src string, opts ...Option) (*View, error) {
	return db.MaterializeContext(context.Background(), name, src, opts...)
}

// MaterializeContext is Materialize with cancellation of the initial
// fixpoint computation.
func (db *Database) MaterializeContext(ctx context.Context, name, src string, opts ...Option) (*View, error) {
	c := &config{params: make(map[string]physical.Param)}
	c.opts.Strategy = coord.DWS
	for _, o := range opts {
		if err := o(c, db); err != nil {
			return nil, err
		}
	}
	if c.broadcast {
		return nil, fmt.Errorf("dcdatalog: broadcast replication is not supported for materialized views")
	}
	db.mu.RLock()
	if _, dup := db.views[name]; dup {
		db.mu.RUnlock()
		return nil, fmt.Errorf("dcdatalog: view %q already materialized", name)
	}
	schemas := maps.Clone(db.schemas)
	db.mu.RUnlock()
	iv, err := ivm.New(ctx, ivm.Config{
		Name:      name,
		Source:    src,
		Schemas:   schemas,
		Syms:      db.syms,
		Params:    c.params,
		Opts:      c.opts,
		Crossover: c.crossover,
	}, db.snapshotData())
	if err != nil {
		return nil, err
	}
	v := &View{db: db, name: name, v: iv, deps: make(map[string]bool)}
	for _, rel := range iv.EDBRelations() {
		v.deps[rel] = true
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.views[name]; dup {
		return nil, fmt.Errorf("dcdatalog: view %q already materialized", name)
	}
	db.views[name] = v
	return v, nil
}

// View returns a registered materialized view, nil when unknown.
func (db *Database) View(name string) *View {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.views[name]
}

// Views lists the registered materialized views, sorted by name.
func (db *Database) Views() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.views))
	for name := range db.views {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DropView unregisters a materialized view. Pending mutations are
// discarded with it.
func (db *Database) DropView(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.views[name]; !ok {
		return false
	}
	delete(db.views, name)
	return true
}

// Name returns the view's registered name.
func (v *View) Name() string { return v.name }

// Refresh brings the view up to date with every mutation applied since
// the previous refresh and reports how (see RefreshStats.Mode).
func (v *View) Refresh(ctx context.Context) (RefreshStats, error) {
	return v.v.Refresh(ctx)
}

// Stats returns the view's cumulative refresh counters.
func (v *View) Stats() ViewStats { return v.v.Stats() }

// Relation returns the raw maintained tuples of a derived relation.
func (v *View) Relation(pred string) []Tuple { return v.v.Relation(pred) }

// Relations lists the view's derived relations, sorted.
func (v *View) Relations() []string { return v.v.Relations() }

// Rows decodes a maintained relation into Go values per its schema.
func (v *View) Rows(pred string) [][]any {
	schema := v.v.Schema(pred)
	tuples := v.v.Relation(pred)
	out := make([][]any, len(tuples))
	for i, t := range tuples {
		row := make([]any, len(t))
		for j, val := range t {
			switch schema.ColType(j) {
			case storage.TFloat:
				row[j] = val.Float()
			case storage.TSym:
				if s, ok := v.db.syms.Lookup(val.Sym()); ok {
					row[j] = s
				} else {
					row[j] = val.Sym()
				}
			default:
				row[j] = val.Int()
			}
		}
		out[i] = row
	}
	return out
}

// Explain returns the logical plan and AND/OR tree of a program
// without executing it.
func (db *Database) Explain(src string, opts ...Option) (string, error) {
	phys, analysis, c, err := db.compile(src, opts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if c.demand != nil {
		if c.demand.Rewritten() {
			fmt.Fprintf(&b, "demand rewrite: magic predicates %s\n", strings.Join(c.demand.Magic, ", "))
			for _, e := range c.demand.Elided {
				fmt.Fprintf(&b, "demand rewrite: %s\n", e)
			}
		} else if len(c.demand.Declined) > 0 {
			fmt.Fprintf(&b, "demand rewrite declined: %s\n", strings.Join(c.demand.Declined, "; "))
		}
	}
	b.WriteString(phys.Plan.Explain())
	for _, s := range analysis.Strata {
		for _, p := range s.Preds {
			fmt.Fprintf(&b, "\nAND/OR tree for %s:\n%s", p, analysis.AndOrTree(p))
		}
	}
	return b.String(), nil
}
