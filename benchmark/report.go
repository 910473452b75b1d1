package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/benchmark/stat"
	"repro/benchmark/trace"
)

// report is one invocation's results with the host they came from.
type report struct {
	host    map[string]any
	results []*result
}

func hostInfo(o options, workers int) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "workers": workers,
		"go": runtime.Version(), "seed": o.seed, "seconds": o.seconds, "quick": o.quick, "commit": commit,
	}
}

// metricRow is one reported metric.
type metricRow struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	stat.Summary
	// Spread is the interquartile range over the median: the noise a
	// bound has to be wider than.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound,omitempty"`
	// Layer and Moves say, for a per-layer metric, which module it
	// measures and which end-to-end metric it should move, and where.
	Layer string `json:"layer,omitempty"`
	Moves string `json:"moves,omitempty"`
	Note  string `json:"note,omitempty"`
}

func row(def metricDef, s stat.Summary, note string) metricRow {
	return metricRow{Name: def.name, Unit: def.unit, Summary: s, Spread: s.Spread(), Bound: def.bound, Layer: def.layer, Moves: def.moves, Note: note}
}

// endToEndRows are arm's end-to-end metrics in table order.
func (r *result) endToEndRows(arm int) []metricRow {
	sums, tailPct := endToEnd(r.w, r.arms[arm])
	rows := make([]metricRow, 0, len(endToEndMetrics))
	for _, def := range endToEndMetrics {
		note := ""
		if def.name == "op_p99_ms" {
			note = fmt.Sprintf("p%.4g of %d pooled samples", tailPct, sums[def.name].N)
		}
		rows = append(rows, row(def, sums[def.name], note))
	}
	return rows
}

func (r *result) perLayerRows() []metricRow {
	if r.layers == nil {
		return nil
	}
	rows := make([]metricRow, 0, len(perLayerMetrics))
	for _, def := range perLayerMetrics {
		rows = append(rows, row(def, stat.Summarize(r.layers[def.name]), ""))
	}
	return rows
}

func (r *result) failShare() float64 { return share(float64(r.failed), float64(r.attempted)) }

func (r *result) sizeString() string {
	keys := make([]string, 0, len(r.sizes))
	for k := range r.sizes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, r.sizes[k])
	}
	return strings.Join(parts, " ")
}

func printRows(w io.Writer, rows []metricRow) {
	for _, m := range rows {
		if m.N == 0 {
			continue // a layer this workload does not exercise
		}
		flag := fmt.Sprintf("iqr %4.1f%%", 100*m.Spread)
		switch {
		case m.Exact:
			flag = "exact"
		case m.Note != "":
			flag = "one value" // a percentile of pooled samples has no quartiles of its own
		}
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("bound %2.0f%%", 100*m.Bound)
		}
		fmt.Fprintf(w, "  %-22s %14.6g %-6s q1 %-12.6g q3 %-12.6g n %-6d %-10s %-9s %s\n",
			m.Name, m.Median, m.Unit, m.Q1, m.Q3, m.N, flag, bound, m.Layer+m.Note)
	}
}

// print writes the human report of one workload.
func (r *result) print(w io.Writer, selfcheck bool) {
	fmt.Fprintf(w, "\n== %s: %s\n   sizes %s; gen_s %.4g; reps %d\n", r.w.name, r.w.why, r.sizeString(), r.genS, r.arms[0].reps)
	fmt.Fprintln(w, " end-to-end (tracing off)")
	printRows(w, r.endToEndRows(0))
	fmt.Fprintf(w, "  %-22s %14.6g %-6s (%d failed of %d attempted)\n", "fail_share", r.failShare(), "share", r.failed, r.attempted)
	classes := make([]string, 0, len(r.arms[0].classMS))
	for class := range r.arms[0].classMS {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		ms := r.arms[0].classMS[class]
		tail, pct := stat.Tail(ms)
		fmt.Fprintf(w, "  %-22s %14.6g %-6s p%.4g %.6g, n %d\n", "op_p50_ms."+class, stat.Median(ms), "ms", pct, tail, len(ms))
	}
	if selfcheck {
		r.printSelfcheck(w)
	}
	if r.layers == nil {
		return
	}
	fmt.Fprintln(w, " per-layer (traced pass)")
	printRows(w, r.perLayerRows())
	fmt.Fprintln(w, " self times (last traced rep)")
	for _, s := range trace.SelfTimes(r.spans) {
		fmt.Fprintf(w, "  %-26s calls %-6d total %-12v self %v\n", s.Name, s.Calls, s.Total, s.Self)
	}
}

// selfcheckRows compares the two arms of an A/A run.
func (r *result) selfcheckRows() (rows []string, ok bool) {
	a, b := r.endToEndRows(0), r.endToEndRows(1)
	ok = true
	for i, def := range endToEndMetrics {
		// Neither set is the parent, so the ratio is taken whichever
		// way makes it at least 1.
		ratio := 1.0
		if a[i].Median > 0 && b[i].Median > 0 {
			ratio = math.Max(a[i].Median/b[i].Median, b[i].Median/a[i].Median)
		}
		verdict := "ok"
		if ratio > 1+def.bound {
			verdict, ok = "FAIL", false
		}
		if spread := math.Max(a[i].Spread, b[i].Spread); spread > def.bound {
			verdict += " (bound narrower than the noise)"
		}
		rows = append(rows, fmt.Sprintf("  %-12s A %-12.6g B %-12.6g ratio %.3f  iqr A %4.1f%% B %4.1f%%  bound %2.0f%%  %s",
			def.name, a[i].Median, b[i].Median, ratio, 100*a[i].Spread, 100*b[i].Spread, 100*def.bound, verdict))
	}
	return rows, ok
}

func (r *result) printSelfcheck(w io.Writer) {
	fmt.Fprintln(w, " A/A (same code, reps interleaved)")
	rows, _ := r.selfcheckRows()
	for _, line := range rows {
		fmt.Fprintln(w, line)
	}
}

// printDriverLine writes the one-line JSON result BENCHMARK.json's
// contract asks for.
func (r *result) printDriverLine(w io.Writer, traced bool) {
	metrics := make(map[string]any)
	rows := r.endToEndRows(0)
	if traced {
		rows = r.perLayerRows()
	}
	for _, m := range rows {
		metrics[m.Name] = map[string]any{"value": m.Median, "unit": m.Unit}
	}
	line, _ := json.Marshal(map[string]any{ // maps of strings and numbers cannot fail to encode
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
}

// verdict prints why the run fails, if it does, and returns the exit
// code: any failed operation, a traced pass whose spans do not cover
// the operation, or an A/A difference beyond a bound.
func (rep *report) verdict(stderr io.Writer, selfcheck bool) int {
	code := 0
	for _, r := range rep.results {
		if r.failed > 0 {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed or returned a wrong result\n", r.w.name, r.failed, r.attempted)
			code = 1
		}
		if r.layers != nil {
			if cover := stat.Median(r.layers["trace_cover"]); cover < minCover {
				fmt.Fprintf(stderr, "benchmark: %s: trace_cover %.3f is below %.1f\n", r.w.name, cover, minCover)
				code = 1
			}
		}
		if selfcheck {
			if _, ok := r.selfcheckRows(); !ok {
				fmt.Fprintf(stderr, "benchmark: %s: two runs of the same code differ by more than a bound\n", r.w.name)
				code = 1
			}
		}
	}
	return code
}

func (rep *report) writeJSON(path string) error {
	type workloadJSON struct {
		Name      string           `json:"name"`
		Why       string           `json:"why"`
		Sizes     map[string]int64 `json:"sizes"`
		GenS      float64          `json:"gen_s"`
		Reps      int              `json:"reps"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		FailShare float64          `json:"fail_share"`
		EndToEnd  []metricRow      `json:"end_to_end"`
		PerLayer  []metricRow      `json:"per_layer,omitempty"`
	}
	out := struct {
		Host      map[string]any `json:"host"`
		Workloads []workloadJSON `json:"workloads"`
	}{Host: rep.host}
	for _, r := range rep.results {
		out.Workloads = append(out.Workloads, workloadJSON{
			Name: r.w.name, Why: r.w.why, Sizes: r.sizes, GenS: r.genS, Reps: r.arms[0].reps,
			Attempted: r.attempted, Failed: r.failed, FailShare: r.failShare(),
			EndToEnd: r.endToEndRows(0), PerLayer: r.perLayerRows(),
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
