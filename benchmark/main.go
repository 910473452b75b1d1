// Command benchmark is the repository's one benchmark: six named
// workloads, end-to-end metrics measured with tracing off, per-layer
// metrics from a traced pass, and a correctness check on every output.
// See README.md beside this file.
//
//	go run ./benchmark                        every workload, human tables
//	go run ./benchmark -only tc-dense         one workload
//	go run ./benchmark -selfcheck             A/A: two interleaved sets of the same code
//	go run ./benchmark -json out.json         also write every number as JSON
//	go run ./benchmark --workload tc-dense --seed 7 --seconds 10 --trace 0
//	                                          one pass, one JSON line (BENCHMARK.json's contract)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/benchmark/stat"
	"repro/benchmark/trace"
)

var workloads = []workload{
	{name: "tc-dense", gen: genTCDense, naiveDiv: 16,
		why: "output-heavy linear recursion: kernel probe, dedup/merge and the exchange plane do the work, front end and index build under 1%"},
	{name: "sssp-agg", gen: genSSSPAgg, naiveDiv: 256,
		why: "min-aggregate recursion over a 2.56M-row EDB: aggregate merge, the DWS gate and a cold index build that is a visible share of the wall"},
	{name: "cc-hub", gen: genCCHub, naiveDiv: 256,
		why: "Zipf-skewed partitions: the one workload where stealing, busy imbalance and gate waits can move the wall; tc-dense is its uniform control"},
	{name: "bound-burst", gen: genBoundBurst, naiveDiv: 16, ops: true,
		why: "sequential bound point queries, each a new $src: parse to compile and per-run fixed cost dominate, the fixpoint is tiny"},
	{name: "ivm-churn", gen: genIVMChurn, naiveDiv: 16, ops: true,
		why: "a materialised TC view under a half-insert half-delete edge stream: internal/ivm does the work, the cold-query path none"},
	{name: "serve-mix", gen: genServeMix, naiveDiv: 16, ops: true,
		why: "the dcserve request path end to end, two closed-loop clients: prepared-cache hits and misses, full CC, mutations with view refresh"},
}

// options are the command's flags.
type options struct {
	only      string
	workload  string
	seed      int64
	seconds   float64
	trace     int
	selfcheck bool
	quick     bool
	jsonPath  string
	golden    bool
	outDir    string
}

// quickDiv is the scale divisor of -quick: every size at a sixteenth,
// for the smoke test.
const quickDiv = 16

// minCover is the least share of a traced operation its layer spans
// must account for.
const minCover = 0.9

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.only, "only", "", "run only this workload, with the human report")
	fs.StringVar(&o.workload, "workload", "", "run one pass of this workload and print one JSON result line last")
	fs.Int64Var(&o.seed, "seed", goldenSeed, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 14, "seconds each workload measures for")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced pass")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "A/A: run two interleaved sets of the same code and fail if they differ by more than a bound")
	fs.BoolVar(&o.quick, "quick", false, "tiny inputs, for the smoke test")
	fs.StringVar(&o.jsonPath, "json", "", "also write the full report to this file")
	fs.BoolVar(&o.golden, "golden-update", false, "print golden.json for seed 42 from a 1-worker Global run and exit")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory the traces are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The host has two cores; the engine's workers, the server's
	// worker budget and the clients all use the same figure.
	workers := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(workers)

	selected := workloads
	name := o.workload
	if name == "" {
		name = o.only
	}
	if name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", name)
			return 2
		}
	}
	if o.golden {
		return updateGolden(stdout, stderr)
	}

	rep := report{host: hostInfo(o, workers)}
	for _, w := range selected {
		res, err := runWorkload(w, o, workers)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		rep.results = append(rep.results, res)
		if o.workload == "" {
			res.print(stdout, o.selfcheck)
		}
	}
	if o.jsonPath != "" {
		if err := rep.writeJSON(o.jsonPath); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if o.workload != "" {
		rep.results[0].printDriverLine(stdout, o.trace == 1)
	}
	return rep.verdict(stderr, o.selfcheck)
}

// result is everything one workload's run produced.
type result struct {
	w      workload
	sizes  map[string]int64
	genS   float64
	arms   []samples    // one, or two under -selfcheck
	layers layerSamples // nil when no traced pass was made
	spans  []trace.Span
	// attempted and failed count operations over every rep, the
	// warm-up and the oracle comparison included.
	attempted, failed int
}

// reference digests the output of a 1-worker Global run of inst.
func reference(inst instance) (digest, error) {
	_, out, err := oneRep(inst, &repCtx{cfg: runConfig{workers: 1, global: true}}, digest{})
	return out.out, err
}

// expected returns the digest a correct full-scale run must produce:
// the recorded one at the golden seed, otherwise the reference run's.
func expected(w workload, inst instance, o options) (digest, error) {
	if o.seed == goldenSeed && !o.quick {
		if d, ok, err := golden(w.name); err != nil || ok {
			return d, err
		}
	}
	return reference(inst)
}

func runWorkload(w workload, o options, workers int) (*result, error) {
	div := 1
	if o.quick {
		div = quickDiv
	}
	cfg := runConfig{workers: workers}
	res := &result{w: w}

	// Correctness against the independent evaluator, on a small
	// instance from the same generator and seed.
	small := w.gen(o.seed, div*w.naiveDiv)
	want, err := small.oracle()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	_, got, err := oneRep(small, &repCtx{cfg: cfg}, want)
	if err != nil {
		return nil, fmt.Errorf("small instance: %w", err)
	}
	res.attempted += got.ops
	res.failed += got.failed

	t0 := time.Now()
	inst := w.gen(o.seed, div)
	res.genS = time.Since(t0).Seconds()
	res.sizes = inst.sizes()
	if want, err = expected(w, inst, o); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	// One warm-up rep, checked but not timed.
	_, warm, err := oneRep(inst, &repCtx{cfg: cfg}, want)
	if err != nil {
		return nil, err
	}
	res.attempted += warm.ops
	res.failed += warm.failed

	// The untraced pass gives the end-to-end metrics. The traced pass
	// interleaves untraced and traced reps, so that trace_overhead
	// compares reps that shared the same minutes of the host. A
	// one-pass run (-workload) makes only the pass it was asked for;
	// the human report makes both, the traced one shorter.
	budget := time.Duration(o.seconds * float64(time.Second))
	oneTraced := o.workload != "" && o.trace == 1
	var ran []samples
	if !oneTraced {
		arms := []bool{false}
		if o.selfcheck {
			arms = []bool{false, false}
		}
		if res.arms, _, _, err = measure(inst, cfg, want, budget*time.Duration(len(arms)), arms...); err != nil {
			return nil, err
		}
		ran = append(ran, res.arms...)
		budget /= 3
	}
	if oneTraced || o.workload == "" && !o.selfcheck {
		var pass []samples
		if pass, res.layers, res.spans, err = measure(inst, cfg, want, budget, false, true); err != nil {
			return nil, err
		}
		ran = append(ran, pass...)
		if oneTraced {
			res.arms = pass[:1]
		}
		res.layers.add("trace_overhead", share(stat.Median(pass[1].wall), stat.Median(pass[0].wall)))
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := trace.WriteJSON(filepath.Join(o.outDir, "trace-"+w.name+".json"), res.spans); err != nil {
			return nil, err
		}
	}
	for _, s := range ran {
		res.attempted += s.ops
		res.failed += s.failed
	}
	return res, nil
}

// updateGolden prints golden.json: each workload's full-scale digest
// at the golden seed, from the 1-worker Global reference run.
func updateGolden(stdout, stderr io.Writer) int {
	fmt.Fprintln(stdout, "{")
	for i, w := range workloads {
		d, err := reference(w.gen(goldenSeed, 1))
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		sep := ","
		if i == len(workloads)-1 {
			sep = ""
		}
		fmt.Fprintf(stdout, "  %q: {\"rows\": %d, \"hash\": %d}%s\n", w.name, d.Rows, d.Hash, sep)
	}
	fmt.Fprintln(stdout, "}")
	return 0
}
