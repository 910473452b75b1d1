package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
)

// TestGeneratorsDeterministic: the same seed gives the same inputs and
// op scripts, another seed gives others of the same size.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, other := w.gen(7, quickDiv), w.gen(7, quickDiv), w.gen(8, quickDiv)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
		if !reflect.DeepEqual(a.sizes(), other.sizes()) {
			t.Errorf("%s: sizes depend on the seed: %v vs %v", w.name, a.sizes(), other.sizes())
		}
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json's names, units,
// directions and bounds equal to the tables the program reports from.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, want)
	}
	check := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(defs))
			return
		}
		for i, def := range defs {
			if want := (metric{def.name, def.unit, def.better, def.bound}); got[i] != want {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestQuickSmoke runs all six workloads at a sixteenth of their size,
// traced pass included, through the human report and the JSON file.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{"-quick", "-seconds", "0.2", "-out", dir, "-json", report}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("the smoke run took %v, want under 10s", d)
	}
	for _, w := range workloads {
		if !strings.Contains(stdout.String(), "== "+w.name+":") {
			t.Errorf("no report for %s", w.name)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), metricDef{name: "fail_share"}, metricDef{name: "trace_cover"}, metricDef{name: "trace_overhead"}) {
		if !strings.Contains(stdout.String(), "  "+m.name+" ") {
			t.Errorf("metric %s is not printed", m.name)
		}
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Host      map[string]any
		Workloads []struct {
			Name      string
			FailShare float64 `json:"fail_share"`
			EndToEnd  []struct {
				Name  string
				N     int
				Bound float64
			} `json:"end_to_end"`
			PerLayer []struct{ Name string } `json:"per_layer"`
		}
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Workloads) != len(workloads) || got.Host["seed"] != float64(goldenSeed) {
		t.Fatalf("report: %d workloads, host %v", len(got.Workloads), got.Host)
	}
	for _, w := range got.Workloads {
		if w.FailShare != 0 || len(w.EndToEnd) != len(endToEndMetrics) || len(w.PerLayer) != len(perLayerMetrics) {
			t.Errorf("%s: fail_share %v, %d end-to-end and %d per-layer metrics", w.Name, w.FailShare, len(w.EndToEnd), len(w.PerLayer))
		}
		for _, m := range w.EndToEnd {
			if m.N == 0 || m.Bound == 0 {
				t.Errorf("%s %s: n %d, bound %v", w.Name, m.Name, m.N, m.Bound)
			}
		}
	}
}

// TestDriverLine checks the one-pass mode BENCHMARK.json's command
// runs: the last line of standard output is one JSON object with
// exactly the agreed keys, carrying every end-to-end metric untraced
// and every per-layer metric traced.
func TestDriverLine(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "ivm-churn", "--seed", "9", "--seconds", "0.2", "--trace", []string{"0", "1"}[trace], "-quick", "-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if len(got) != 4 || string(got["correct"]) != "true" || string(got["failed"]) != "0" || got["attempted"] == nil {
			t.Errorf("trace %d: result %s", trace, lines[len(lines)-1])
		}
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, def := range defs {
			if m, ok := metrics[def.name]; !ok || m.Value == nil || m.Unit != def.unit {
				t.Errorf("trace %d: metric %s = %+v", trace, def.name, m)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "no-such"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("an unknown workload exited %d and printed %q", code, stdout.String())
	}
}

// TestDigest: order does not matter, content does.
func TestDigest(t *testing.T) {
	inst := genTCDense(3, quickDiv).(*batchInst)
	tuples := inst.prog.tuples
	reversed := make([]storage.Tuple, len(tuples))
	for i, tup := range tuples {
		reversed[len(tuples)-1-i] = tup
	}
	if digestOf(tuples) != digestOf(reversed) {
		t.Error("the digest depends on tuple order")
	}
	if digestOf(tuples) == digestOf(tuples[1:]) {
		t.Error("dropping a tuple left the digest unchanged")
	}
	var a, b digest
	a.fold(0, digest{Rows: 1, Hash: 5})
	a.fold(1, digest{Rows: 2, Hash: 6})
	b.fold(0, digest{Rows: 2, Hash: 6})
	b.fold(1, digest{Rows: 1, Hash: 5})
	if a == b {
		t.Error("swapping two operations' results left the script digest unchanged")
	}
}
