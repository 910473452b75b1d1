package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	dcdatalog "repro"
	"repro/internal/ast"
	"repro/internal/coord"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/pcg"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// Span names. spanOp is the root of one operation's traced layer
// walk: its children are the layer calls, and trace_cover is their
// share of it.
const (
	spanOp     = "op"
	spanPublic = "public"
	spanSetup  = "setup"
)

// program is a query with its one input relation and integer
// parameters: what every batch rep and every bound-burst op evaluates.
type program struct {
	q      queries.Query
	rel    string
	tuples []storage.Tuple
	params map[string]int64
}

func (p program) options(cfg runConfig) []dcdatalog.Option {
	opts := []dcdatalog.Option{dcdatalog.WithWorkers(cfg.workers)}
	if cfg.global {
		opts = append(opts, dcdatalog.WithStrategy(dcdatalog.Global))
	}
	for k, v := range p.params {
		opts = append(opts, dcdatalog.WithParam(k, v))
	}
	return opts
}

// newDB declares and loads the program's relation: the batch
// workloads' whole setup.
func (p program) newDB(rc *repCtx) (*dcdatalog.Database, error) {
	db := dcdatalog.NewDatabase()
	root := rc.rec.Start(spanSetup, -1, 0)
	defer rc.rec.End(root)
	var err error
	rc.span("dcdatalog.Declare", root, 0, func() {
		for _, s := range p.q.EDB {
			if err = db.DeclareSchema(s); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	load := rc.span("dcdatalog.LoadTuples", root, 0, func() { err = db.LoadTuples(p.rel, p.tuples) })
	rc.layers.add("load_s", load.Seconds())
	return db, err
}

// query is the public path a dcdatalog user takes: program text in,
// decoded rows out. It returns the output relation's digest. Untraced
// it is Database.Query; traced, the Prepare and Exec that Query is made
// of are called apart so that each gets its span.
func (p program) query(rc *repCtx, db *dcdatalog.Database, op int) (digest, error) {
	var (
		res  *dcdatalog.Result
		rows [][]any
		err  error
	)
	if !rc.traced() {
		if res, err = db.Query(p.q.Source, p.options(rc.cfg)...); err != nil {
			return digest{}, err
		}
		rows = res.Rows(p.q.Output)
	} else {
		var prep *dcdatalog.Prepared
		root := rc.rec.Start(spanPublic, -1, op)
		defer rc.rec.End(root)
		d := rc.span("dcdatalog.Prepare", root, op, func() { prep, err = db.Prepare(p.q.Source, p.options(rc.cfg)...) })
		if err != nil {
			return digest{}, err
		}
		rc.layers.addMS("prepare_ms", d)
		d = rc.span("dcdatalog.Exec", root, op, func() { res, err = prep.Exec(context.Background()) })
		if err != nil {
			return digest{}, err
		}
		rc.layers.addMS("exec_ms", d)
		rc.layers.add("stats_setup_s", res.Stats().SetupDuration.Seconds())
		d = rc.span("dcdatalog.Rows", root, op, func() { rows = res.Rows(p.q.Output) })
		rc.layers.addMS("materialize_ms", d)
	}
	out := digestOf(res.Relation(p.q.Output))
	if int64(len(rows)) != out.Rows {
		return digest{}, fmt.Errorf("%s: Rows returned %d rows for %d tuples", p.q.Name, len(rows), out.Rows)
	}
	return out, nil
}

// walk performs, call by call, the sequence Database.Prepare and
// Prepared.Exec perform, with a span around each layer's public
// function: parse, analyze, demand rewrite (and re-analysis), plan,
// compile, index build, fixpoint, materialise. Only the traced pass
// calls it. A nil base makes it cold, as a batch query is; bound-burst
// passes the base its setup prewarmed.
func (p program) walk(rc *repCtx, base *engine.PreparedBase, op int) (digest, time.Duration, error) {
	schemas := make(map[string]*storage.Schema, len(p.q.EDB))
	for _, s := range p.q.EDB {
		schemas[s.Name] = s
	}
	data := map[string][]storage.Tuple{p.rel: p.tuples}
	paramTypes := make(map[string]storage.Type, len(p.params))
	params := make(map[string]physical.Param, len(p.params))
	for k, v := range p.params {
		paramTypes[k] = storage.TInt
		params[k] = physical.Param{Value: storage.IntVal(v), Type: storage.TInt}
	}
	opts := engine.Options{Workers: rc.cfg.workers, Strategy: coord.DWS}
	if rc.cfg.global {
		opts.Strategy = coord.Global
	}

	var (
		prog     *ast.Program
		analysis *pcg.Analysis
		logical  *plan.Plan
		phys     *physical.Program
		err      error
		frontend time.Duration
	)
	root := rc.rec.Start(spanOp, -1, op)
	layer := func(metric, name string, fn func()) {
		d := rc.span(name, root, op, fn)
		rc.layers.addMS(metric, d)
		frontend += d
	}
	layer("parser_ms", "parser.Parse", func() { prog, err = parser.Parse(p.q.Source) })
	if err != nil {
		return digest{}, 0, err
	}
	layer("pcg_ms", "pcg.Analyze", func() { analysis, err = pcg.Analyze(prog, schemas, paramTypes) })
	if err != nil {
		return digest{}, 0, err
	}
	var demand *rewrite.Result
	layer("rewrite_ms", "rewrite.Apply", func() { demand = rewrite.Apply(analysis) })
	applied := 0.0
	if demand.Rewritten() {
		applied = 1
		layer("pcg_ms", "pcg.Analyze", func() { analysis, err = pcg.Analyze(demand.Program, schemas, paramTypes) })
		if err != nil {
			return digest{}, 0, err
		}
	}
	// Building the base snapshot is storage work that the public path
	// does inside compile, before planning reads its statistics.
	var build time.Duration
	if base == nil {
		build += rc.span("engine.NewPreparedBase", root, op, func() { base = engine.NewPreparedBase(schemas, data) })
	}
	layer("plan_ms", "plan.Build", func() { logical, err = plan.Build(analysis, plan.WithStats(base)) })
	if err != nil {
		return digest{}, 0, err
	}
	layer("physical_ms", "physical.Compile", func() { phys, err = physical.Compile(logical, params, nil) })
	if err != nil {
		return digest{}, 0, err
	}
	rc.layers.addMS("frontend_ms", frontend)

	indexed := 0
	build += rc.span("PreparedBase.Indexes", root, op, func() {
		for name, lookups := range phys.BaseLookups {
			if base.Has(name) {
				base.Indexes(name, lookups, opts.Workers)
				indexed += len(base.Tuples(name)) * len(lookups)
			}
		}
	})
	opts.Base = base

	var res *engine.Result
	run := rc.span("engine.RunContext", root, op, func() { res, err = engine.RunContext(context.Background(), phys, data, opts) })
	if err != nil {
		return digest{}, 0, err
	}
	var rows [][]any
	rc.span("materialise", root, op, func() { rows = decodeInts(res.Relations[p.q.Output]) })
	wall := rc.rec.End(root)

	l := rc.layers
	l.add("rules", float64(len(prog.Rules)))
	l.add("strata", float64(len(analysis.Strata)))
	l.add("physical_ops", float64(countOps(phys)))
	l.add("rewrite_applied_share", applied)
	l.add("index_build_s", build.Seconds())
	l.add("rows_indexed", float64(indexed))
	l.add("engine_run_s", run.Seconds())
	total := 0
	for _, tuples := range res.Relations {
		total += len(tuples)
	}
	l.addEngine(res.Stats, total)
	out := digestOf(res.Relations[p.q.Output])
	if int64(len(rows)) != out.Rows {
		return digest{}, 0, fmt.Errorf("%s: materialised %d rows of %d", p.q.Name, len(rows), out.Rows)
	}
	return out, wall, nil
}

// decodeInts is Result.Rows for all-integer schemas, which is what
// every benchmark program derives.
func decodeInts(tuples []storage.Tuple) [][]any {
	out := make([][]any, len(tuples))
	for i, t := range tuples {
		row := make([]any, len(t))
		for j, v := range t {
			row[j] = v.Int()
		}
		out[i] = row
	}
	return out
}

func countOps(p *physical.Program) int {
	n := 0
	for _, st := range p.Strata {
		for _, rules := range [][]*physical.Rule{st.BaseRules, st.RecRules} {
			for _, r := range rules {
				n += len(r.Ops)
				if r.Outer != nil {
					n++
				}
			}
		}
	}
	return n
}

// batchInst is a batch workload's generated input: one cold query.
type batchInst struct {
	prog program
	size map[string]int64
}

func (b *batchInst) sizes() map[string]int64 { return b.size }

func (b *batchInst) setup(rc *repCtx) (any, error) { return b.prog.newDB(rc) }

func (b *batchInst) run(rc *repCtx, state any) (repOut, error) {
	db := state.(*dcdatalog.Database)
	out := repOut{ops: 1}
	if !rc.traced() {
		t0 := time.Now()
		d, err := b.prog.query(rc, db, 0)
		out.wall, out.out = time.Since(t0), d
		return out, err
	}
	public, err := b.prog.query(rc, db, 0)
	if err != nil {
		return out, err
	}
	walked, wall, err := b.prog.walk(rc, nil, 0)
	if err != nil {
		return out, err
	}
	if walked != public {
		out.failed++
	}
	out.wall, out.out = wall, public
	return out, nil
}

func (b *batchInst) oracle() (digest, error) {
	p := b.prog
	tuples, err := naiveEval(p.q.Source, p.q.EDB, map[string][]storage.Tuple{p.rel: p.tuples}, p.params, p.q.Output)
	return digestOf(tuples), err
}

func scaled(n int64, div int) int64 { return max(n/int64(div), 16) }

// shapeSeed draws every graph's shape, every weight, source set,
// update stream and request script. The run's -seed does not change
// them: it renames the vertices and reorders the tuples. So two seeds
// give the program different inputs (other ids, other hash partitions,
// other index layouts) that cost the same work, and the spread between
// runs with different seeds measures the host rather than the luck of
// the draw. With the shape drawn from the seed, the tree under
// ivm-churn had 1266 to 3606 vertices over eight seeds and its wall
// ranged 1.05-1.76 s.
const shapeSeed = 1

// labels is a seed-drawn renaming of the vertices [0, n); ids from n
// up, which serve-mix's mutations introduce, keep their names.
type labels struct {
	perm []int
	rng  *rand.Rand
}

func newLabels(n int64, seed int64) *labels {
	rng := rand.New(rand.NewSource(seed))
	return &labels{perm: rng.Perm(int(n)), rng: rng}
}

func (l *labels) vertex(v int64) int64 {
	if v < int64(len(l.perm)) {
		return int64(l.perm[v])
	}
	return v
}

func (l *labels) edge(e datasets.Edge) datasets.Edge {
	return datasets.Edge{Src: l.vertex(e.Src), Dst: l.vertex(e.Dst)}
}

// edges renames a copy of es and shuffles it.
func (l *labels) edges(es []datasets.Edge) []datasets.Edge {
	out := make([]datasets.Edge, len(es))
	for i, e := range es {
		out[i] = l.edge(e)
	}
	l.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func genTCDense(seed int64, div int) instance {
	n := scaled(1536, div)
	edges := newLabels(n, seed).edges(datasets.RMATn(n, shapeSeed))
	return &batchInst{
		prog: program{q: queries.TC(), rel: "arc", tuples: datasets.EdgeTuples(edges)},
		size: map[string]int64{"vertices": n, "arc": int64(len(edges))},
	}
}

func genSSSPAgg(seed int64, div int) instance {
	n := scaled(128000, div)
	l := newLabels(n, seed)
	shape := datasets.Undirect(datasets.RMATn(n, shapeSeed))
	wedges := datasets.Weight(shape, 100, shapeSeed+1)
	for i := range wedges {
		wedges[i].Src, wedges[i].Dst = l.vertex(wedges[i].Src), l.vertex(wedges[i].Dst)
	}
	l.rng.Shuffle(len(wedges), func(i, j int) { wedges[i], wedges[j] = wedges[j], wedges[i] })
	return &batchInst{
		prog: program{
			q: queries.SSSP(), rel: "warc", tuples: datasets.WEdgeTuples(wedges),
			params: map[string]int64{"start": l.vertex(datasets.HubVertex(shape))},
		},
		size: map[string]int64{"vertices": n, "warc": int64(len(wedges))},
	}
}

func genCCHub(seed int64, div int) instance {
	n := scaled(128000, div)
	edges := newLabels(n, seed).edges(datasets.Undirect(datasets.Hub(n, int(6*n), 1.3, shapeSeed)))
	return &batchInst{
		prog: program{q: queries.CC(), rel: "arc", tuples: datasets.EdgeTuples(edges)},
		size: map[string]int64{"vertices": n, "arc": int64(len(edges))},
	}
}
