package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	dcdatalog "repro"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/queries"
	"repro/internal/storage"
)

// burstInst is bound-burst: a script of sequential bound point
// queries, each with its own $src, against one prewarmed database.
type burstInst struct {
	prog program // params are filled per op
	srcs []int64
	size map[string]int64
}

type burstState struct {
	db *dcdatalog.Database
	// base is the traced walk's own prewarmed snapshot, nil untraced.
	base *engine.PreparedBase
}

func genBoundBurst(seed int64, div int) instance {
	n := scaled(1024, div)
	ops := int(scaled(400, div))
	l := newLabels(n, seed)
	edges := l.edges(datasets.RMATn(n, shapeSeed))
	srcs := make([]int64, ops)
	for i, v := range rand.New(rand.NewSource(shapeSeed + 2)).Perm(int(n))[:ops] {
		srcs[i] = l.vertex(int64(v))
	}
	l.rng.Shuffle(ops, func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
	return &burstInst{
		prog: program{q: queries.BoundTC(), rel: "arc", tuples: datasets.EdgeTuples(edges)},
		srcs: srcs,
		size: map[string]int64{"vertices": n, "arc": int64(len(edges)), "ops_per_rep": int64(ops)},
	}
}

func (b *burstInst) sizes() map[string]int64 { return b.size }

func (b *burstInst) setup(rc *repCtx) (any, error) {
	db, err := b.prog.newDB(rc)
	if err != nil {
		return nil, err
	}
	st := &burstState{db: db}
	rc.span("dcdatalog.Prewarm", -1, 0, db.Prewarm)
	if rc.traced() {
		schemas := map[string]*storage.Schema{b.prog.rel: b.prog.q.EDB[0]}
		st.base = engine.NewPreparedBase(schemas, map[string][]storage.Tuple{b.prog.rel: b.prog.tuples})
	}
	return st, nil
}

func (b *burstInst) at(i int) program {
	p := b.prog
	p.params = map[string]int64{"src": b.srcs[i]}
	return p
}

func (b *burstInst) run(rc *repCtx, state any) (repOut, error) {
	st := state.(*burstState)
	out := repOut{ops: len(b.srcs), latMS: make([]float64, 0, len(b.srcs))}
	start := time.Now()
	for i := range b.srcs {
		p := b.at(i)
		t0 := time.Now()
		d, err := p.query(rc, st.db, i)
		if err != nil {
			return out, err
		}
		out.latMS = append(out.latMS, float64(time.Since(t0))/1e6)
		out.out.fold(i, d)
		if rc.traced() {
			walked, wall, err := p.walk(rc, st.base, i)
			if err != nil {
				return out, err
			}
			if walked != d {
				out.failed++
			}
			out.wall += wall
		}
	}
	if !rc.traced() {
		out.wall = time.Since(start)
	}
	return out, nil
}

// oracle evaluates the unbound closure once with internal/naive and
// reads each operation's answer, reach(Y) :- tc($src, Y), off it.
func (b *burstInst) oracle() (digest, error) {
	tc := queries.TC()
	closure, err := naiveEval(tc.Source, tc.EDB, map[string][]storage.Tuple{b.prog.rel: b.prog.tuples}, nil, tc.Output)
	if err != nil {
		return digest{}, err
	}
	reach := make(map[int64][]storage.Tuple)
	for _, t := range closure {
		reach[t[0].Int()] = append(reach[t[0].Int()], storage.Tuple{t[1]})
	}
	var out digest
	for i, src := range b.srcs {
		out.fold(i, digestOf(reach[src]))
	}
	return out, nil
}

// churnBatch is how many edge operations one ivm-churn op applies
// before it refreshes the view.
const churnBatch = 4

// churnInst is ivm-churn: a materialised TC view over a tree, kept up
// to date under a half-insert, half-delete edge stream.
type churnInst struct {
	q      queries.Query
	edges  []datasets.Edge
	stream []datasets.UpdateOp
	size   map[string]int64
	cold   coldClosure
}

// coldClosure evaluates TC from scratch over a graph, once per
// instance: what a maintained view of that graph must equal.
type coldClosure struct {
	once sync.Once
	d    digest
	err  error
}

func (c *coldClosure) digest(edges []datasets.Edge) (digest, error) {
	c.once.Do(func() {
		p := program{q: queries.TC(), rel: "arc", tuples: datasets.EdgeTuples(edges)}
		rc := &repCtx{cfg: runConfig{workers: 1, global: true}}
		db, err := p.newDB(rc)
		if err != nil {
			c.err = err
			return
		}
		c.d, c.err = p.query(rc, db, 0)
	})
	return c.d, c.err
}

type churnState struct {
	db   *dcdatalog.Database
	view *dcdatalog.View
}

func genIVMChurn(seed int64, div int) instance {
	height := 8
	if div > 1 {
		height = 5
	}
	batches := int(scaled(300, div))
	shape := datasets.Tree(height, 2, 3, shapeSeed)
	n := int64(len(shape) + 1)
	l := newLabels(n, seed)
	// The stream's order is part of its meaning (an edge is deleted
	// after it was inserted), so it is renamed but not reordered.
	stream := datasets.UpdateStream(shape, n, batches*churnBatch, 0.5, 0, shapeSeed+3)
	for i := range stream {
		stream[i].Edge = l.edge(stream[i].Edge)
	}
	return &churnInst{
		q:      queries.TC(),
		edges:  l.edges(shape),
		stream: stream,
		size:   map[string]int64{"vertices": n, "arc": int64(len(shape)), "ops_per_rep": int64(batches)},
	}
}

func (c *churnInst) sizes() map[string]int64 { return c.size }

func (c *churnInst) program(edges []datasets.Edge) program {
	return program{q: c.q, rel: "arc", tuples: datasets.EdgeTuples(edges)}
}

func (c *churnInst) setup(rc *repCtx) (any, error) {
	p := c.program(c.edges)
	db, err := p.newDB(rc)
	if err != nil {
		return nil, err
	}
	st := &churnState{db: db}
	rc.span("dcdatalog.Materialize", -1, 0, func() { st.view, err = db.Materialize("tc", c.q.Source, p.options(rc.cfg)...) })
	return st, err
}

func (c *churnInst) run(rc *repCtx, state any) (repOut, error) {
	db, v := state.(*churnState).db, state.(*churnState).view
	batches := len(c.stream) / churnBatch
	out := repOut{ops: batches, latMS: make([]float64, 0, batches)}
	var incremental, full float64
	start := time.Now()
	for i := 0; i < batches; i++ {
		t0 := time.Now()
		root := rc.rec.Start(spanOp, -1, i)
		var err error
		for _, op := range c.stream[i*churnBatch : (i+1)*churnBatch] {
			t := datasets.EdgeTuples([]datasets.Edge{op.Edge})
			if op.Delete {
				rc.span("dcdatalog.DeleteTuples", root, i, func() { err = db.DeleteTuples("arc", t) })
			} else {
				rc.span("dcdatalog.InsertTuples", root, i, func() { err = db.InsertTuples("arc", t) })
			}
			if err != nil {
				return out, err
			}
		}
		var st dcdatalog.RefreshStats
		rc.span("ivm.Refresh", root, i, func() { st, err = v.Refresh(context.Background()) })
		if err != nil {
			return out, err
		}
		rc.rec.End(root)
		out.latMS = append(out.latMS, float64(time.Since(t0))/1e6)
		if rc.traced() {
			l := rc.layers
			l.addMS("refresh_ms", st.Duration)
			l.addMS("refresh_del_ms", st.DelDuration)
			l.addMS("refresh_red_ms", st.RedDuration)
			l.addMS("refresh_ins_ms", st.InsDuration)
			l.add("delta_tuples_per_op", float64(st.DeltaTuples))
			switch st.Mode {
			case "incremental":
				incremental++
			case "full":
				full++
			}
		}
	}
	out.wall = time.Since(start)
	rc.layers.add("incremental_share", share(incremental, incremental+full))
	out.out = digestOf(v.Relation(c.q.Output))
	// The view must end equal to a cold evaluation over the graph the
	// stream leaves behind.
	cold, err := c.cold.digest(datasets.ApplyUpdates(c.edges, c.stream))
	if err != nil {
		return out, err
	}
	if out.out != cold {
		out.failed++
	}
	return out, nil
}

func (c *churnInst) oracle() (digest, error) {
	p := c.program(datasets.ApplyUpdates(c.edges, c.stream))
	tuples, err := naiveEval(p.q.Source, p.q.EDB, map[string][]storage.Tuple{p.rel: p.tuples}, nil, p.q.Output)
	return digestOf(tuples), err
}
