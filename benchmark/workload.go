package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/benchmark/stat"
	"repro/benchmark/trace"
)

// workload names one set of inputs and the reason it is in the suite.
type workload struct {
	name string
	why  string
	// ops marks a workload whose rep is a script of many operations;
	// a batch workload's rep is one operation, the cold query.
	ops bool
	// naiveDiv is the scale divisor of the instance checked against
	// internal/naive: 16 where the oracle finishes in about a second,
	// larger where its nested-loop joins over a big EDB would not.
	naiveDiv int
	// gen builds the inputs from the seed at 1/div of full size. The
	// program under test sees only what gen returns.
	gen func(seed int64, div int) instance
}

// runConfig is how an instance is asked to run: the measured
// configuration is {workers, DWS}; the reference one is {1, Global}.
type runConfig struct {
	workers int
	global  bool
}

// instance is one generated input set with the code that drives the
// program over it.
type instance interface {
	// sizes reports the generated input sizes for the host block.
	sizes() map[string]int64
	// setup is everything the program does before the first timed
	// operation; its duration is setup_s.
	setup(rc *repCtx) (any, error)
	// run is the timed section over the state setup returned.
	run(rc *repCtx, state any) (repOut, error)
	// oracle computes the expected digest with internal/naive. Only
	// called on the naiveDiv-scale instance.
	oracle() (digest, error)
}

// repCtx carries one rep's configuration and, on the traced pass, the
// span recorder and the per-layer sample sink. Both are nil untraced.
type repCtx struct {
	cfg    runConfig
	rec    *trace.Recorder
	layers layerSamples
}

func (rc *repCtx) traced() bool { return rc.rec != nil }

// span times fn under a span; untraced it only calls fn.
func (rc *repCtx) span(name string, parent, op int, fn func()) time.Duration {
	id := rc.rec.Start(name, parent, op)
	fn()
	return rc.rec.End(id)
}

// repOut is what one timed section produced.
type repOut struct {
	// wall is the timed section. On the traced pass it is the traced
	// layer walk, which trace_overhead compares with the untraced wall.
	wall time.Duration
	// latMS holds one latency per operation, in milliseconds.
	latMS []float64
	// ops and failed count operations attempted and operations that
	// errored, were refused, or returned a wrong result.
	ops, failed int
	// out digests the outputs, to compare with the expected digest.
	out digest
	// classMS splits latMS by request class where the workload has
	// classes (serve-mix); nil otherwise.
	classMS map[string][]float64
}

// samples accumulates a workload's reps.
type samples struct {
	wall        []float64 // seconds, one per rep
	setup       []float64 // seconds, one per set-up
	p50MS       []float64 // each rep's median operation latency
	latMS       []float64 // pooled over reps
	classMS     map[string][]float64
	ops, failed int
	reps        int
}

func (s *samples) add(setups []time.Duration, out repOut) {
	s.wall = append(s.wall, out.wall.Seconds())
	for _, d := range setups {
		s.setup = append(s.setup, d.Seconds())
	}
	s.latMS = append(s.latMS, out.latMS...)
	s.p50MS = append(s.p50MS, stat.Median(out.latMS))
	for class, ms := range out.classMS {
		if s.classMS == nil {
			s.classMS = make(map[string][]float64)
		}
		s.classMS[class] = append(s.classMS[class], ms...)
	}
	s.ops += out.ops
	s.failed += out.failed
	s.reps++
}

// A set-up shorter than shortSetup (loading a few thousand tuples) is
// taken setupRepeats times in each rep, because one sub-millisecond
// sample per rep reads too noisily for setup_s to carry a bound. Each
// is preceded by a GC: straight after one a 15k-tuple LoadTuples takes
// 0.25 ms, but the next few, allocating into a heap the collector has
// just shrunk, trigger collection cycles and take 0.2 to 1.8 ms.
const (
	shortSetup   = 5 * time.Millisecond
	setupRepeats = 5
)

// oneRep runs setup and the timed section once, after the two GCs
// that keep one rep's garbage out of the next rep's time, and counts a
// digest mismatch as one more failed operation. It returns every
// set-up time it took.
func oneRep(inst instance, rc *repCtx, want digest) ([]time.Duration, repOut, error) {
	runtime.GC()
	var memBefore runtime.MemStats
	if rc.traced() {
		runtime.ReadMemStats(&memBefore)
	}
	var (
		setups []time.Duration
		state  any
		err    error
	)
	for len(setups) < setupRepeats {
		runtime.GC()
		t0 := time.Now()
		if state, err = inst.setup(rc); err != nil {
			return nil, repOut{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
		if setups[0] >= shortSetup {
			break
		}
	}
	out, err := inst.run(rc, state)
	if err != nil {
		return nil, repOut{}, fmt.Errorf("run: %w", err)
	}
	if rc.traced() {
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		rc.layers.add("alloc_mb", float64(mem.TotalAlloc-memBefore.TotalAlloc)/(1<<20))
		rc.layers.add("mallocs", float64(mem.Mallocs-memBefore.Mallocs))
		rc.layers.add("heap_peak_mb", float64(mem.HeapSys)/(1<<20))
	}
	if out.out != want {
		out.failed++
	}
	return setups, out, nil
}

// minReps is the fewest reps a pass takes however short its budget,
// so a median always has something on both sides.
const minReps = 3

// measure repeats oneRep for the given duration, filling one sample
// set per arm with the arms' reps interleaved; traced says which arms
// record spans. Two untraced arms are the A/A self-check; an untraced
// and a traced arm give trace_overhead from reps that shared the same
// minutes of the host.
func measure(inst instance, cfg runConfig, want digest, d time.Duration, traced ...bool) ([]samples, layerSamples, []trace.Span, error) {
	out := make([]samples, len(traced))
	layers := make(layerSamples)
	var spans []trace.Span
	deadline := time.Now().Add(d)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		for arm := range out {
			rc := &repCtx{cfg: cfg}
			if traced[arm] {
				rc.rec, rc.layers = trace.New(), layers
			}
			setups, ro, err := oneRep(inst, rc, want)
			if err != nil {
				return nil, nil, nil, err
			}
			out[arm].add(setups, ro)
			if traced[arm] {
				// The last rep's spans are the ones written out; every
				// rep feeds the per-layer samples.
				spans = rc.rec.Spans()
				layers.add("trace_cover", trace.Cover(spans, spanOp))
			}
		}
	}
	return out, layers, spans, nil
}

// endToEnd turns a sample set into the end-to-end metrics. For a batch
// workload the operation is the whole cold query, so its latency
// figures restate wall_s per operation. op_p50_ms is the median of the
// reps' medians, so its quartiles show rep-to-rep noise rather than the
// width of the latency distribution; op_p99_ms is one reading of the
// pooled latencies, and tailPct says which percentile it could
// honestly be.
func endToEnd(w workload, s samples) (m map[string]stat.Summary, tailPct float64) {
	lat, p50 := s.latMS, s.p50MS
	if !w.ops {
		lat = make([]float64, len(s.wall))
		for i, sec := range s.wall {
			lat[i] = sec * 1e3
		}
		p50 = lat
	}
	perSec := make([]float64, len(s.wall))
	for i, sec := range s.wall {
		perSec[i] = float64(s.ops) / float64(s.reps) / sec
	}
	tail, pct := stat.Tail(lat)
	return map[string]stat.Summary{
		"wall_s":    stat.Summarize(s.wall),
		"op_p50_ms": stat.Summarize(p50),
		"op_p99_ms": {Median: tail, Q1: tail, Q3: tail, N: len(lat)},
		"ops_per_s": stat.Summarize(perSec),
		"setup_s":   stat.Summarize(s.setup),
	}, pct
}
