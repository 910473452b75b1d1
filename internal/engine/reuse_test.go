package engine_test

// Run scratch reuse seen through the public API: recycled buffers must
// never change what a query computes — poisoned on release, shared by
// concurrent queries — and a point query's allocation is pinned where
// a user pays for it, at Database.Query plus Rows.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	dcdatalog "repro"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/queries"
	"repro/internal/storage"
)

// TestScratchPoisonedDifferentials reruns the paper-query and view-stream
// differentials with every buffer overwritten as it is handed back: a
// result, view or later stratum that still aliased recycled memory would
// read the poison and disagree with internal/naive. Fully parallel runs
// exercise frames, rings and stealing; the default threshold exercises
// the cooperative phase and the hand-off.
func TestScratchPoisonedDifferentials(t *testing.T) {
	engine.SetPoisonOnRelease(t)
	limits := []paperLimit{{"parallel", 0}, {"default", engine.CoopThreshold}}
	t.Run("paper", func(t *testing.T) { paperDifferential(t, limits) })
	t.Run("views", func(t *testing.T) { viewStreamDifferential(t, limits) })
}

// TestScratchConcurrentQueries runs eight goroutines of Database.Query
// against one database, as dcserve does, mixing bound point queries
// that finish cooperatively with a full TC that widens, with poisoned
// release. Every answer must match internal/naive, and no goroutine may
// outlive the queries.
func TestScratchConcurrentQueries(t *testing.T) {
	engine.SetPoisonOnRelease(t)
	edges := datasets.Gnp(100, 300, 5)
	arc := arcOf(edges)
	srcs := []int64{edges[0].Src, edges[7].Src, edges[19].Src, edges[42].Src}
	type job struct {
		q      queries.Query
		params map[string]any
		want   int
	}
	var jobs []job
	for _, s := range srcs {
		c := paperCase{q: queries.BoundTC(), edb: arc, params: map[string]any{"src": s}}
		jobs = append(jobs, job{c.q, c.params, len(c.oracle(t))})
	}
	full := paperCase{q: queries.TC(), edb: arc}
	jobs = append(jobs, job{full.q, nil, len(full.oracle(t))})
	db := full.newDB(t)

	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				j := jobs[(g+i)%len(jobs)]
				opts := []dcdatalog.Option{dcdatalog.WithWorkers(2)}
				for k, v := range j.params {
					opts = append(opts, dcdatalog.WithParam(k, v))
				}
				res, err := db.Query(j.q.Source, opts...)
				if err != nil {
					t.Error(err)
					return
				}
				if got := len(res.Rows(j.q.Output)); got != j.want {
					t.Errorf("goroutine %d, %s %v: %d rows, want %d", g, j.q.Name, j.params, got, j.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := waitGoroutines(base, time.Second); n > base {
		t.Fatalf("goroutines leaked: %d before, %d after", base, n)
	}
}

// TestScratchBoundQueryAllocations pins what one bound TC point query
// costs through the public API — Database.Query plus Rows, two workers,
// over the RMAT-1024 graph bound-burst uses — at the measured value plus
// ten percent: 173 KiB in 1 302 objects per query with recycled run
// scratch, against 1 178 KiB in 2 411 objects without. What is left is
// mostly the answer itself: arena tuples, the materialized relations
// and the decoded rows.
func TestScratchBoundQueryAllocations(t *testing.T) {
	if engine.RaceEnabled {
		t.Skip("sync.Pool drops recycled workers at random under the race detector")
	}
	const maxBytes, maxObjects = 190 << 10, 1430
	edges := datasets.RMATn(1024, 1)
	db := paperCase{q: queries.BoundTC(), edb: arcOf(edges)}.newDB(t)
	db.Prewarm()
	q := queries.BoundTC()
	i := 0
	query := func() {
		src := edges[(i*97)%len(edges)].Src
		i++
		res, err := db.Query(q.Source, dcdatalog.WithWorkers(2), dcdatalog.WithParam("src", src))
		if err != nil {
			t.Fatal(err)
		}
		res.Rows(q.Output)
	}
	for k := 0; k < 20; k++ {
		query() // fill the pools
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		query()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	objects := (after.Mallocs - before.Mallocs) / runs
	t.Logf("%d bytes, %d objects per query", bytes, objects)
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("a bound point query allocates %d bytes in %d objects, want at most %d in %d",
			bytes, objects, maxBytes, maxObjects)
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// base or the deadline passes, and returns the final count.
func waitGoroutines(base int, deadline time.Duration) int {
	limit := time.Now().Add(deadline)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(limit) {
			return n
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func arcOf(edges []datasets.Edge) map[string][]storage.Tuple {
	return map[string][]storage.Tuple{"arc": datasets.EdgeTuples(edges)}
}
