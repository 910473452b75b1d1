package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/coord"
	"repro/internal/storage"
)

// Tests for the staged probe pipeline, the tag/audit counters and the
// Bloom guard. The existing differential and kernel-coverage suites
// already run with the pipeline on (ProbeGroup defaults to 16), so the
// focus here is the knobs: group-size sweeps, the guard's warmup, and
// the counter surfaces.

// fanoutEDB builds a rooted tree with fixed fanout: every internal
// node's bucket in the arc-by-source index holds exactly `fanout` rows,
// so the audited-bucket walk has a deterministic skip profile.
func fanoutEDB(depth, fanout int) map[string][]storage.Tuple {
	var es [][2]int64
	next := int64(1)
	level := []int64{0}
	for d := 0; d < depth; d++ {
		var nl []int64
		for _, p := range level {
			for c := 0; c < fanout; c++ {
				es = append(es, [2]int64{p, next})
				nl = append(nl, next)
				next++
			}
		}
		level = nl
	}
	return map[string][]storage.Tuple{"arc": pairs(es)}
}

// TestPipelineGroupSweepIdentical runs TC and SG across probe group
// sizes (1 = serial fallback) and strategies; every configuration must
// produce the same fixpoint as the serial baseline.
func TestPipelineGroupSweepIdentical(t *testing.T) {
	progs := map[string]string{
		"tc": `tc(X, Y) :- arc(X, Y).
			tc(X, Z) :- tc(X, Y), arc(Y, Z).`,
		"sg": `sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.
			sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).`,
	}
	rng := rand.New(rand.NewSource(41))
	edb := map[string][]storage.Tuple{"arc": pairs(randGraph(rng, 60, 150))}
	for name, src := range progs {
		prog := compileSrc(t, src, arcSchemas(), nil)
		for _, workers := range []int{1, 4} {
			var want []string
			for _, g := range []int{1, 2, 4, 8, 16, 32} {
				res, err := Run(prog, edb, Options{
					Workers: workers, Strategy: coord.DWS, ProbeGroup: g})
				if err != nil {
					t.Fatal(err)
				}
				got := sortedRows(res.Relations[name])
				if want == nil {
					want = got
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%s w=%d G=%d: %d tuples, want %d", name, workers, g, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s w=%d G=%d row %d: %s vs %s", name, workers, g, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestBloomModesIdentical runs a negation-bearing program beside a
// miss-heavy positive join, so one run mixes guard states: the small
// sg/nosib join frames stay warming or freeze into bloomPass, while
// the loop frame's probes mostly miss and freeze it into bloomGuard.
// Every configuration must match the oracle, and the single-worker run
// must have engaged the guard.
func TestBloomModesIdentical(t *testing.T) {
	src := `
		sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.
		sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).
		node(X) :- arc(_, X).
		nosib(X) :- node(X), !sg(X, X).
		vert(X) :- edge(X, _).
		vert(X) :- edge(_, X).
		loop(X) :- vert(X), edge(X, X).
	`
	schemas := arcSchemas()
	schemas["edge"] = intSchema("edge", "x", "y")
	rng := rand.New(rand.NewSource(43))
	// A few self-loops spread over the vertex range, so some land after
	// the loop frame's warmup has frozen it into bloomGuard.
	edges := randGraph(rng, 700, 1000)
	for v := int64(0); v < 700; v += 97 {
		edges = append(edges, [2]int64{v, v})
	}
	edb := map[string][]storage.Tuple{
		"arc":  pairs(randGraph(rng, 30, 60)),
		"edge": pairs(edges),
	}
	for _, o := range diffConfigs() {
		got, want := runBoth(t, src, schemas, edb, nil, o)
		for _, rel := range []string{"sg", "nosib", "loop"} {
			assertSameRelation(t, rel+"/"+cfgName(o), got[rel], want[rel])
		}
	}
	res, err := Run(compileSrc(t, src, schemas, nil), edb, Options{Workers: 1, Strategy: coord.DWS})
	if err != nil {
		t.Fatal(err)
	}
	if pc := res.Stats.Probe; pc.BloomChecks == 0 || pc.BloomSkips == 0 {
		t.Fatalf("the miss-heavy loop join never engaged the guard: %+v", pc)
	}
}

// TestProbeCountersSurface checks Stats.Probe is populated and
// internally consistent, and that on a fanout-structured workload the
// audited directory eliminates the expected share of full-key
// compares: every probed bucket holds `fanout` same-key rows, so at
// most one compare per probe survives and the skip rate approaches
// (fanout-1)/fanout.
func TestProbeCountersSurface(t *testing.T) {
	src := `tc(X, Y) :- arc(X, Y).
		tc(X, Z) :- tc(X, Y), arc(Y, Z).`
	prog := compileSrc(t, src, arcSchemas(), nil)
	edb := fanoutEDB(5, 4)
	res, err := Run(prog, edb, Options{Workers: 2, Strategy: coord.DWS})
	if err != nil {
		t.Fatal(err)
	}
	pc := res.Stats.Probe
	if pc.TagProbes == 0 {
		t.Fatalf("no tag-lane probes counted: %+v", pc)
	}
	if pc.TagRejects > pc.TagProbes {
		t.Fatalf("more rejects than probes: %+v", pc)
	}
	if pc.KeyCompares == 0 {
		t.Fatalf("no key compares counted: %+v", pc)
	}
	if rate := pc.KeySkipRate(); rate < 0.5 {
		t.Fatalf("fanout-4 workload skip rate %.2f, want >= 0.5 (audit not engaging): %+v", rate, pc)
	}
	// Per-stratum counters must sum to the run total.
	var sum storage.ProbeCounters
	for _, st := range res.Stats.Strata {
		sum.Add(st.Probe)
	}
	if sum != pc {
		t.Fatalf("stratum probe counters %+v do not sum to run total %+v", sum, pc)
	}
}

// TestBloomGuardSkipsJoinMisses drives a positive join whose probes
// mostly miss (few self-loops) past the guard's warmup window and
// checks the frame then consults the guard and skips directory walks,
// while the result still matches the oracle.
func TestBloomGuardSkipsJoinMisses(t *testing.T) {
	src := `
		node(X) :- arc(X, _).
		node(X) :- arc(_, X).
		loop(X) :- node(X), arc(X, X).
	`
	rng := rand.New(rand.NewSource(47))
	// 2000 vertices: enough node probes (> bloomWarmup) for one worker's
	// join frame to close its warmup window.
	edges := randGraph(rng, 2000, 3000)
	edges = append(edges, [2]int64{7, 7}, [2]int64{11, 11})
	edb := map[string][]storage.Tuple{"arc": pairs(edges)}
	res, want := runBoth(t, src, arcSchemas(), edb, nil, Options{Workers: 1})
	assertSameRelation(t, "loop", res["loop"], want["loop"])
	prog := compileSrc(t, src, arcSchemas(), nil)
	run, err := Run(prog, edb, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pc := run.Stats.Probe
	if pc.BloomChecks == 0 {
		t.Fatalf("miss-heavy join never consulted the guard: %+v", pc)
	}
	if pc.BloomSkips == 0 {
		t.Fatalf("miss-heavy join produced no bloom skips: %+v", pc)
	}
}

// TestPipelineAllocsSteadyState extends the kernel allocation guard to
// the staged pipeline: the marginal allocation cost per derived tuple
// must stay ~0 for serial, default and maximum group sizes (the stage
// buffer is fixed worker scratch, so G must not change the answer).
func TestPipelineAllocsSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow")
	}
	src := `tc(X, Y) :- edge(X, Y).
	tc(X, Z) :- tc(X, Y), edge(Y, Z).`
	schemas := map[string]*storage.Schema{"edge": intSchema("edge", "x", "y")}
	prog := compileSrc(t, src, schemas, nil)
	for _, g := range []int{1, 16, 32} {
		opts := Options{Workers: 1, Strategy: coord.DWS, ProbeGroup: g}
		measure := func(n int64) (float64, int) {
			edb := tcAllocsEDB(n)
			res, err := Run(prog, edb, opts)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := Run(prog, edb, opts); err != nil {
					t.Fatal(err)
				}
			})
			return allocs, len(res.Relations["tc"])
		}
		allocsSmall, tuplesSmall := measure(100)
		allocsBig, tuplesBig := measure(260)
		extra := tuplesBig - tuplesSmall
		perTuple := (allocsBig - allocsSmall) / float64(extra)
		t.Logf("G=%d: %d->%d tuples, %.4f allocs per derived tuple", g, tuplesSmall, tuplesBig, perTuple)
		if perTuple > 0.5 {
			t.Fatalf("G=%d: marginal allocations per derived tuple = %.3f, want < 0.5 "+
				"(the staged pipeline is allocating per probe)", g, perTuple)
		}
	}
}

// BenchmarkPipelineGroupSweep is the G ∈ {1,4,8,16,32} sweep on the
// single-worker TC hot loop — the headline microbenchmark for the
// staged pipeline (G=1 is the serial baseline).
func BenchmarkPipelineGroupSweep(b *testing.B) {
	src := `tc(X, Y) :- edge(X, Y).
	tc(X, Z) :- tc(X, Y), edge(Y, Z).`
	schemas := map[string]*storage.Schema{"edge": intSchema("edge", "x", "y")}
	prog := compileSrc(b, src, schemas, nil)
	edb := map[string][]storage.Tuple{"edge": benchTCEdges()}
	for _, g := range []int{1, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("G=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(prog, edb, Options{
					Workers: 1, Strategy: coord.DWS, ProbeGroup: g}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAntiJoinMix runs, end to end, a workload mixing a recursive
// join (high hit rate) with a miss-heavy negation over a base index
// (the anti-join miss path walks the tagged directory).
func BenchmarkAntiJoinMix(b *testing.B) {
	src := `
		tc(X, Y) :- edge(X, Y).
		tc(X, Z) :- tc(X, Y), edge(Y, Z).
		node(X) :- edge(X, _).
		sink(X) :- node(X), !edge(X, X).
	`
	schemas := map[string]*storage.Schema{"edge": intSchema("edge", "x", "y")}
	prog := compileSrc(b, src, schemas, nil)
	edb := map[string][]storage.Tuple{"edge": benchTCEdges()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(prog, edb, Options{Workers: 1, Strategy: coord.DWS}); err != nil {
			b.Fatal(err)
		}
	}
}
