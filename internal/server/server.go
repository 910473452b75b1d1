package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	dcdatalog "repro"
	"repro/internal/rewrite"
)

// Config sizes the service.
type Config struct {
	// WorkerBudget is the machine-wide worker-slot budget shared by
	// all concurrent queries; 0 uses GOMAXPROCS.
	WorkerBudget int
	// MaxQueue bounds the admission queue; beyond it queries are
	// rejected with 429. Default 16; negative means no queue at all
	// (reject the moment the budget is exhausted).
	MaxQueue int
	// MaxWorkersPerQuery clamps any single query's worker request;
	// 0 means the full budget.
	MaxWorkersPerQuery int
	// DefaultWorkersPerQuery is used when a request doesn't ask;
	// 0 means min(4, budget).
	DefaultWorkersPerQuery int
	// DefaultTimeout bounds queries that don't set one. Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested timeout. Default 5m.
	MaxTimeout time.Duration
	// CacheSize bounds the prepared-program LRU. Default 128.
	CacheSize int
	// DefaultMaxTuples is the per-stratum tuple budget applied when a
	// request doesn't set one; 0 leaves evaluation unbounded (the
	// timeout is then the only guard against divergence).
	DefaultMaxTuples int64
}

func (c Config) withDefaults() Config {
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.MaxWorkersPerQuery <= 0 || c.MaxWorkersPerQuery > c.WorkerBudget {
		c.MaxWorkersPerQuery = c.WorkerBudget
	}
	if c.DefaultWorkersPerQuery <= 0 {
		c.DefaultWorkersPerQuery = 4
	}
	if c.DefaultWorkersPerQuery > c.MaxWorkersPerQuery {
		c.DefaultWorkersPerQuery = c.MaxWorkersPerQuery
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	return c
}

// Server is the long-lived query service: a dataset registry, a
// prepared-program cache, an admission controller and the HTTP
// surface (POST /v1/datasets, POST /v1/query, GET /healthz,
// GET /metrics).
type Server struct {
	cfg      Config
	registry *Registry
	cache    *preparedCache
	adm      *Admission
	metrics  Metrics
	mux      *http.ServeMux

	draining atomic.Bool
	inflight atomic.Int64
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(),
		cache:    newPreparedCache(cfg.CacheSize),
		adm:      NewAdmission(cfg.WorkerBudget, cfg.MaxQueue),
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/datasets", s.handleRegisterDataset)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/mutate", s.handleMutate)
	s.mux.HandleFunc("POST /v1/views", s.handleCreateView)
	s.mux.HandleFunc("GET /v1/views", s.handleListViews)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Registry exposes the dataset registry (startup loading, tests).
func (s *Server) Registry() *Registry { return s.registry }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting queries (healthz flips to draining, query
// returns 503) and waits until every in-flight query has finished or
// ctx expires. In-flight queries keep running to completion — their
// own deadlines still apply — which is the graceful half of graceful
// shutdown; the caller typically pairs Drain with http.Server.Shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %d queries still in flight: %w", s.inflight.Load(), ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }

// Inflight reports the number of queries currently executing.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// datasetRequest registers one named dataset in a single atomic call.
type datasetRequest struct {
	Name      string         `json:"name"`
	Relations []RelationSpec `json:"relations"`
}

func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req datasetRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad dataset request: %v", err)
		return
	}
	ds, err := BuildDataset(req.Name, req.Relations)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.registry.Register(ds); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"dataset":   ds.Name,
		"relations": ds.Relations(),
	})
}

// queryRequest is one evaluation request against a registered dataset.
type queryRequest struct {
	// Dataset names a registered dataset.
	Dataset string `json:"dataset"`
	// Program is the Datalog source.
	Program string `json:"program"`
	// Params binds $parameters (JSON numbers become int64 when
	// integral, float64 otherwise; strings stay strings).
	Params map[string]any `json:"params,omitempty"`
	// Workers requests a parallelism level (clamped by the server).
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds evaluation wall time (capped by MaxTimeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxTuples overrides the server's default per-stratum budget.
	MaxTuples int64 `json:"max_tuples,omitempty"`
	// Relations selects which derived relations to return (default:
	// all).
	Relations []string `json:"relations,omitempty"`
	// Limit caps rows returned per relation (counts stay exact).
	Limit int `json:"limit,omitempty"`
}

type queryResponse struct {
	Relations map[string][][]any `json:"relations"`
	Counts    map[string]int     `json:"counts"`
	Stats     queryStats         `json:"stats"`
	Cached    bool               `json:"cached"`
	Truncated bool               `json:"truncated,omitempty"`
	Error     string             `json:"error,omitempty"`
}

type queryStats struct {
	DurationMS float64 `json:"duration_ms"`
	// SetupMS is the pre-evaluation cost (base registration + index
	// attach/build). Warm queries against the dataset's prepared base
	// report near-zero here; the first query per lookup signature pays
	// the build.
	SetupMS    float64 `json:"setup_ms"`
	Workers    int     `json:"workers"`
	Iterations int64   `json:"iterations"`
	Tuples     int     `json:"tuples"`
	// CooperativeStrata is how many of the query's strata reached
	// their fixpoint on the request's own goroutine; the others
	// widened onto the granted workers.
	CooperativeStrata int `json:"cooperative_strata"`
}

// decodeParams converts JSON param values into the Go types WithParam
// accepts, using json.Number to keep int64s exact.
func decodeParams(raw map[string]any) (map[string]any, error) {
	out := make(map[string]any, len(raw))
	for k, v := range raw {
		switch x := v.(type) {
		case json.Number:
			if i, err := strconv.ParseInt(x.String(), 10, 64); err == nil {
				out[k] = i
			} else if f, err := x.Float64(); err == nil {
				out[k] = f
			} else {
				return nil, fmt.Errorf("param %q: bad number %q", k, x.String())
			}
		case string:
			out[k] = x
		default:
			return nil, fmt.Errorf("param %q: unsupported type %T", k, v)
		}
	}
	return out, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Count the whole handler as in-flight (including admission
	// queueing), so Drain cannot declare the server idle while a
	// queued query is about to start executing.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	var req queryRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad query request: %v", err)
		return
	}
	if req.Program == "" {
		httpError(w, http.StatusBadRequest, "query needs a program")
		return
	}
	ds, ok := s.registry.Get(req.Dataset)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	params, err := decodeParams(req.Params)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Per-query deadline, capped by policy, anchored before admission
	// so time spent queueing counts against the client's budget.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Admission: claim worker slots or shed load.
	want := req.Workers
	if want <= 0 {
		want = s.cfg.DefaultWorkersPerQuery
	}
	if want > s.cfg.MaxWorkersPerQuery {
		want = s.cfg.MaxWorkersPerQuery
	}
	granted, release, err := s.adm.Acquire(ctx, want)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.Rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		s.metrics.QueriesCanceled.Add(1)
		httpError(w, http.StatusGatewayTimeout, "timed out in admission queue: %v", err)
		return
	}
	defer release()

	// Compile once per (dataset, program, params); reuse forever.
	key := cacheKey(req.Dataset, req.Program, params)
	prep, cached := s.cache.get(key)
	if !cached {
		opts := make([]dcdatalog.Option, 0, len(params))
		for k, v := range params {
			opts = append(opts, dcdatalog.WithParam(k, v))
		}
		prep, err = ds.DB().Prepare(req.Program, opts...)
		if err != nil {
			s.metrics.QueriesFailed.Add(1)
			httpError(w, http.StatusBadRequest, "compile: %v", err)
			return
		}
		s.cache.put(key, prep)
	}

	maxTuples := s.cfg.DefaultMaxTuples
	if req.MaxTuples > 0 {
		maxTuples = req.MaxTuples
	}
	execOpts := []dcdatalog.Option{dcdatalog.WithWorkers(granted)}
	if maxTuples > 0 {
		execOpts = append(execOpts, dcdatalog.WithMaxTuples(maxTuples))
	}

	start := time.Now()
	res, err := prep.Exec(ctx, execOpts...)
	elapsed := time.Since(start)

	truncated := false
	switch {
	case errors.Is(err, dcdatalog.ErrBudgetExceeded):
		truncated = true // res is the partial result; fall through
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.QueriesCanceled.Add(1)
		httpError(w, http.StatusGatewayTimeout, "query exceeded its %s deadline", timeout)
		return
	case errors.Is(err, context.Canceled):
		s.metrics.QueriesCanceled.Add(1)
		// 499: client closed request (nginx convention) — the client
		// is usually gone, but write a body for proxies that aren't.
		httpError(w, 499, "query canceled: %v", err)
		return
	case err != nil:
		s.metrics.QueriesFailed.Add(1)
		httpError(w, http.StatusInternalServerError, "execution: %v", err)
		return
	}

	// Collect requested relations (default: every derived relation).
	stats := res.Stats()
	names := req.Relations
	if len(names) == 0 {
		for _, st := range stats.Strata {
			for _, p := range st.Preds {
				// Magic predicates are rewrite plumbing (the demanded
				// binding sets), not part of the program the client wrote.
				if rewrite.IsMagic(p) {
					continue
				}
				names = append(names, p)
			}
		}
	}
	resp := queryResponse{
		Relations: make(map[string][][]any, len(names)),
		Counts:    make(map[string]int, len(names)),
		Cached:    cached,
		Truncated: truncated,
	}
	if truncated {
		resp.Error = err.Error()
	}
	total := 0
	for _, name := range names {
		rows := res.Rows(name)
		resp.Counts[name] = len(rows)
		total += len(rows)
		if req.Limit > 0 && len(rows) > req.Limit {
			rows = rows[:req.Limit]
		}
		resp.Relations[name] = rows
	}
	resp.Stats = queryStats{
		DurationMS: float64(elapsed.Nanoseconds()) / 1e6,
		SetupMS:    float64(stats.SetupDuration.Nanoseconds()) / 1e6,
		Workers:    granted,
		Iterations: stats.TotalIters(),
		Tuples:     total,

		CooperativeStrata: stats.CoopStrata,
	}

	if truncated {
		s.metrics.QueriesTruncated.Add(1)
	} else {
		s.metrics.QueriesOK.Add(1)
	}
	s.metrics.LatencyNanos.Add(elapsed.Nanoseconds())
	s.metrics.LatencyCount.Add(1)
	s.metrics.Iterations.Add(stats.TotalIters())
	s.metrics.TuplesOut.Add(int64(total))
	s.metrics.ProbeTagProbes.Add(stats.Probe.TagProbes)
	s.metrics.ProbeTagRejects.Add(stats.Probe.TagRejects)
	s.metrics.ProbeKeyCompares.Add(stats.Probe.KeyCompares)
	s.metrics.ProbeKeySkips.Add(stats.Probe.KeySkips)
	s.metrics.StealMorsels.Add(stats.Steal.MorselsExecuted)
	s.metrics.StealStolen.Add(stats.Steal.MorselsStolen)
	s.metrics.StealAttempts.Add(stats.Steal.Attempts)
	s.metrics.StealFailures.Add(stats.Steal.Failures)
	s.metrics.StrataCooperative.Add(int64(stats.CoopStrata))
	s.metrics.StrataWidened.Add(int64(stats.WidenedStrata))
	s.metrics.SetupSeconds.Observe(stats.SetupDuration)
	if res.DemandRewritten() {
		s.metrics.DemandRewrites.Add(1)
	}
	if est, actual := res.DemandCardinalities(); est > 0 {
		s.metrics.DemandEstTuples.Add(est)
		s.metrics.DemandActualTuples.Add(actual)
	}

	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"datasets": s.registry.Names(),
		"inflight": s.inflight.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses, entries := s.cache.stats()
	base := s.registry.BaseStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w,
		[]counter{
			{"dcserve_edb_index_cache_hits_total", "Base-relation index requests served from a dataset's prepared base.", base.Hits},
			{"dcserve_edb_index_cache_misses_total", "Base-relation index requests that performed a build.", base.Misses},
		},
		gauge{"dcserve_queue_depth", "Queries waiting for admission.", int64(s.adm.QueueDepth())},
		gauge{"dcserve_workers_in_use", "Worker slots currently granted.", int64(s.adm.InUse())},
		gauge{"dcserve_worker_budget", "Total worker-slot budget.", int64(s.adm.Budget())},
		gauge{"dcserve_inflight", "Queries currently executing.", s.inflight.Load()},
		gauge{"dcserve_prepared_cache_hits_total", "Prepared-program cache hits.", hits},
		gauge{"dcserve_prepared_cache_misses_total", "Prepared-program cache misses.", misses},
		gauge{"dcserve_prepared_cache_entries", "Prepared programs cached.", int64(entries)},
		gauge{"dcserve_edb_indexes_resident", "Distinct base-relation indexes cached across datasets.", int64(base.Indexes)},
		gauge{"dcserve_datasets", "Registered datasets.", int64(s.registry.Len())},
	)
}
