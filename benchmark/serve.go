package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datasets"
	"repro/internal/queries"
	"repro/internal/server"
	"repro/internal/storage"
)

// Request classes of serve-mix.
const (
	classHit    = "hit"    // bound TC over a hot $src: prepared-cache hit
	classMiss   = "miss"   // bound TC with a never-seen $src: prepare
	classCC     = "cc"     // full CC, first 100 rows returned
	classMutate = "mutate" // insert edges and refresh the TC view
)

const (
	serveDataset    = "g"
	serveView       = "tc"
	serveHotSources = 16
	serveRowLimit   = 100
	// mutateEdges is how many edges one mutation inserts. Each leaves
	// a brand-new vertex for a vertex the graph already has, so it adds
	// exactly one cc row and leaves every bound-TC answer over the
	// original vertices as it was: responses stay checkable however
	// the two clients interleave.
	mutateEdges = 4
)

type request struct {
	class string
	path  string
	body  []byte
	// src and reach are a bound-TC request's source and the count it
	// must return.
	src   int64
	reach int
}

// serveInst is serve-mix: an in-process dcserve handler with one
// dataset and one materialised view, driven by closed-loop clients
// through ServeHTTP.
type serveInst struct {
	tsv      string
	final    []datasets.Edge // the graph once every mutation has been applied
	reqs     []request
	viewBody []byte
	ccBase   int // cc rows before any mutation
	size     map[string]int64
	cold     coldClosure
}

type serveState struct {
	srv *server.Server
	ds  *server.Dataset
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings and numbers are passed
	}
	return b
}

func genServeMix(seed int64, div int) instance {
	n := scaled(512, div)
	total := int(scaled(600, div))
	shape := datasets.RMATn(n, shapeSeed)
	rng := rand.New(rand.NewSource(shapeSeed + 4))
	l := newLabels(n, seed)

	succ := make(map[int64][]int64)
	endpoints := make(map[int64]bool)
	for _, e := range shape {
		succ[e.Src] = append(succ[e.Src], e.Dst)
		endpoints[e.Src], endpoints[e.Dst] = true, true
	}
	// reach counts the vertices one or more edges away from src, the
	// answer of BoundTC, by the benchmark's own breadth-first search.
	reach := func(src int64) int {
		seen := make(map[int64]bool)
		queue := append([]int64(nil), succ[src]...)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if seen[v] {
				continue
			}
			seen[v] = true
			queue = append(queue, succ[v]...)
		}
		return len(seen)
	}

	classes := make([]string, 0, total)
	for _, m := range []struct {
		class  string
		tenths int
	}{{classHit, 6}, {classMiss, 2}, {classCC, 1}, {classMutate, 1}} {
		for i := 0; i < total*m.tenths/10; i++ {
			classes = append(classes, m.class)
		}
	}
	for len(classes) < total {
		classes = append(classes, classHit)
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	perm := rng.Perm(int(n))
	nHot := min(serveHotSources, len(perm)/2)
	hot, cold := perm[:nHot], perm[nHot:]
	bound, cc := queries.BoundTC(), queries.CC()
	boundReq := func(class string, src int64) request {
		return request{class: class, path: "/v1/query", src: l.vertex(src), reach: reach(src), body: mustJSON(map[string]any{
			"dataset": serveDataset, "program": bound.Source, "params": map[string]any{"src": l.vertex(src)},
			"relations": []string{bound.Output}, "limit": serveRowLimit,
		})}
	}
	inst := &serveInst{final: l.edges(shape), ccBase: len(endpoints)}
	var tsv strings.Builder
	for _, e := range inst.final {
		fmt.Fprintf(&tsv, "%d\t%d\n", e.Src, e.Dst)
	}
	inst.tsv = tsv.String()
	fresh := n // next brand-new vertex id
	for _, class := range classes {
		switch class {
		case classHit:
			inst.reqs = append(inst.reqs, boundReq(class, int64(hot[rng.Intn(len(hot))])))
		case classMiss:
			src := int64(cold[0])
			cold = append(cold[1:], cold[0])
			inst.reqs = append(inst.reqs, boundReq(class, src))
		case classCC:
			inst.reqs = append(inst.reqs, request{class: class, path: "/v1/query", body: mustJSON(map[string]any{
				"dataset": serveDataset, "program": cc.Source, "relations": []string{cc.Output}, "limit": serveRowLimit,
			})})
		case classMutate:
			var rows strings.Builder
			for i := 0; i < mutateEdges; i++ {
				e := datasets.Edge{Src: fresh, Dst: l.vertex(shape[rng.Intn(len(shape))].Src)}
				fresh++
				inst.final = append(inst.final, e)
				fmt.Fprintf(&rows, "%d\t%d\n", e.Src, e.Dst)
			}
			inst.reqs = append(inst.reqs, request{class: class, path: "/v1/mutate", body: mustJSON(map[string]any{
				"dataset": serveDataset, "ops": []map[string]any{{"relation": "arc", "insert": rows.String()}},
			})})
		}
	}
	inst.viewBody = mustJSON(map[string]any{"dataset": serveDataset, "name": serveView, "program": queries.TC().Source})
	inst.size = map[string]int64{"vertices": n, "arc": int64(len(shape)), "ops_per_rep": int64(total), "hot_sources": int64(nHot)}
	return inst
}

func (s *serveInst) sizes() map[string]int64 { return s.size }

func post(srv *server.Server, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

func (s *serveInst) setup(rc *repCtx) (any, error) {
	st := &serveState{srv: server.New(server.Config{WorkerBudget: rc.cfg.workers})}
	root := rc.rec.Start(spanSetup, -1, 0)
	defer rc.rec.End(root)
	var err error
	rc.span("server.BuildDataset", root, 0, func() {
		st.ds, err = server.BuildDataset(serveDataset, []server.RelationSpec{{Name: "arc", Types: []string{"int", "int"}, Data: s.tsv}})
	})
	if err != nil {
		return nil, err
	}
	rc.span("Registry.Register", root, 0, func() { err = st.srv.Registry().Register(st.ds) })
	if err != nil {
		return nil, err
	}
	rc.span("POST /v1/views", root, 0, func() {
		if w := post(st.srv, "/v1/views", s.viewBody); w.Code != http.StatusCreated {
			err = fmt.Errorf("create view: %d %s", w.Code, w.Body.String())
		}
	})
	return st, err
}

// response holds the fields of query and mutate responses that the
// checks and the server's self time need.
type response struct {
	Counts map[string]int `json:"counts"`
	Cached bool           `json:"cached"`
	Stats  struct {
		DurationMS float64 `json:"duration_ms"`
		SetupMS    float64 `json:"setup_ms"`
	} `json:"stats"`
	Inserted int `json:"inserted"`
	Views    map[string]struct {
		Mode        string  `json:"mode"`
		DeltaTuples int     `json:"delta_tuples"`
		DurationMS  float64 `json:"duration_ms"`
		Error       string  `json:"error"`
	} `json:"views"`
}

func (s *serveInst) run(rc *repCtx, state any) (repOut, error) {
	st := state.(*serveState)
	n := len(s.reqs)
	out := repOut{ops: n, latMS: make([]float64, n), classMS: make(map[string][]float64)}
	ok := make([]bool, n)
	self := make([]float64, n) // handler time the server spent outside evaluation
	resps := make([]response, n)
	before := scrape(rc, st.srv)
	reachRel, ccRel := queries.BoundTC().Output, queries.CC().Output

	var next, mutStarted, mutDone atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	// One closed-loop client per worker: each sends its next request
	// when its last one has returned.
	for c := 0; c < rc.cfg.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				req := s.reqs[i]
				root := rc.rec.Start(spanOp, -1, i)
				done := mutDone.Load()
				if req.class == classMutate {
					mutStarted.Add(1)
				}
				var w *httptest.ResponseRecorder
				handler := rc.span("server.ServeHTTP", root, i, func() {
					t0 := time.Now()
					w = post(st.srv, req.path, req.body)
					out.latMS[i] = float64(time.Since(t0)) / 1e6
				})
				if req.class == classMutate {
					mutDone.Add(1)
				}
				started := mutStarted.Load()
				rc.span("client.check", root, i, func() {
					r := &resps[i]
					if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), r) != nil {
						return
					}
					evalMS := r.Stats.DurationMS + r.Stats.SetupMS
					switch req.class {
					case classHit, classMiss:
						ok[i] = r.Counts[reachRel] == req.reach
					case classCC:
						// Any number of mutations between those finished
						// before the request and those begun by its end
						// may be visible.
						grown := r.Counts[ccRel] - s.ccBase
						ok[i] = grown%mutateEdges == 0 && int64(grown/mutateEdges) >= done && int64(grown/mutateEdges) <= started
					case classMutate:
						v, found := r.Views[serveView]
						// Two mutations can overlap, and then one's refresh
						// absorbs both batches and the other's is a no-op.
						ok[i] = r.Inserted == mutateEdges && found && v.Error == ""
						evalMS = v.DurationMS
					}
					self[i] = float64(handler)/1e6 - evalMS
				})
				rc.rec.End(root)
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)

	var reachSum, inserted int64
	for i, req := range s.reqs {
		out.classMS[req.class] = append(out.classMS[req.class], out.latMS[i])
		if !ok[i] {
			out.failed++
		}
		reachSum += int64(resps[i].Counts[reachRel])
		inserted += int64(resps[i].Inserted)
	}
	view := st.ds.DB().View(serveView)
	if view == nil {
		return out, fmt.Errorf("view %q is gone", serveView)
	}
	viewDigest := digestOf(view.Relation(queries.TC().Output))
	cold, err := s.cold.digest(s.final)
	if err != nil {
		return out, err
	}
	if viewDigest != cold {
		out.failed++
	}
	out.out = s.digest(viewDigest, reachSum, inserted)

	if rc.traced() {
		s.layerStats(rc, st.srv, before, resps, self)
	}
	return out, nil
}

// digest folds what a whole script returned into one value: the final
// view, the bound-TC counts and the edges inserted. CC counts are left
// out because they depend on how the clients interleaved.
func (s *serveInst) digest(view digest, reachSum, inserted int64) digest {
	view.fold(0, digest{Rows: reachSum, Hash: uint64(inserted)})
	return view
}

func (s *serveInst) oracle() (digest, error) {
	tc := queries.TC()
	tuples, err := naiveEval(tc.Source, tc.EDB, map[string][]storage.Tuple{"arc": datasets.EdgeTuples(s.final)}, nil, tc.Output)
	if err != nil {
		return digest{}, err
	}
	// Mutations add edges that leave new vertices only, so the final
	// closure restricted to an original source is that source's answer.
	reach := make(map[int64]int64)
	for _, t := range tuples {
		reach[t[0].Int()]++
	}
	var reachSum, inserted int64
	for _, req := range s.reqs {
		switch req.class {
		case classHit, classMiss:
			reachSum += reach[req.src]
		case classMutate:
			inserted += mutateEdges
		}
	}
	return s.digest(digestOf(tuples), reachSum, inserted), nil
}

// scrape reads the counters of GET /metrics; nil untraced.
func scrape(rc *repCtx, srv *server.Server) map[string]float64 {
	if !rc.traced() {
		return nil
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m := make(map[string]float64)
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		name, value, found := strings.Cut(sc.Text(), " ")
		if v, err := strconv.ParseFloat(value, 64); found && err == nil && !strings.HasPrefix(name, "#") {
			m[name] = v
		}
	}
	return m
}

// layerStats records the server and ivm layers' numbers for one
// script, from the responses and from /metrics before and after.
func (s *serveInst) layerStats(rc *repCtx, srv *server.Server, before map[string]float64, resps []response, self []float64) {
	l := rc.layers
	after := scrape(rc, srv)
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("dcserve_prepared_cache_hits_total"), delta("dcserve_prepared_cache_misses_total")
	l.add("prepared_hit_rate", share(hits, hits+misses))
	hits, misses = delta("dcserve_edb_index_cache_hits_total"), delta("dcserve_edb_index_cache_misses_total")
	l.add("index_cache_hit_rate", share(hits, hits+misses))
	l.add("rejected", delta("dcserve_rejected_total")+delta("dcserve_mutations_rejected_total"))
	l.add("iters", delta("dcserve_iterations_total"))
	l.add("tag_reject_rate", share(delta("dcserve_probe_tag_rejects_total"), delta("dcserve_probe_tag_probes_total")))
	skips := delta("dcserve_probe_key_skips_total")
	l.add("key_skip_rate", share(skips, skips+delta("dcserve_probe_key_compares_total")))
	l.add("bloom_skip_rate", share(delta("dcserve_probe_bloom_skips_total"), delta("dcserve_probe_bloom_checks_total")))
	l.add("steal_success", share(delta("dcserve_steal_attempts_total")-delta("dcserve_steal_failures_total"), delta("dcserve_steal_attempts_total")))
	incremental, full := delta("dcserve_ivm_refresh_incremental_total"), delta("dcserve_ivm_refresh_full_total")
	l.add("incremental_share", share(incremental, incremental+full))

	for i, req := range s.reqs {
		l.add("server_self_ms", self[i])
		l.add("server_self_"+req.class+"_ms", self[i])
		if v, found := resps[i].Views[serveView]; found {
			l.add("refresh_ms", v.DurationMS)
			l.add("delta_tuples_per_op", float64(v.DeltaTuples))
		}
	}
}
