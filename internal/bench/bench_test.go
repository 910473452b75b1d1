package bench

import (
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{Scale: 0.02, Workers: 2, Seed: 1, StratCap: 10}
}

func render(t *testing.T, tb *Table) string {
	t.Helper()
	var b strings.Builder
	tb.Render(&b)
	return b.String()
}

func TestTable3Structure(t *testing.T) {
	tb := Table3(tiny())
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	out := render(t, tb)
	for _, want := range []string{"APSP", "two-way", "Broadcast", "rmat-16"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	for _, row := range tb.Rows {
		for _, c := range row[1:] {
			if strings.HasPrefix(c, "ERR") {
				t.Fatalf("cell errored: %v", row)
			}
		}
	}
}

func TestFigure3Table(t *testing.T) {
	tb := Figure3()
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	out := render(t, tb)
	for _, want := range []string{"global", "ssp", "dws", "128"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFigure9aTables(t *testing.T) {
	tabs := Figure9a(tiny())
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	sim := render(t, tabs[1])
	if !strings.Contains(sim, "64") || !strings.Contains(sim, "Speedup") {
		t.Fatalf("sim table:\n%s", sim)
	}
}

func TestCellFormatting(t *testing.T) {
	if cell(0.0001, "") != "0.0001s" {
		t.Fatalf("cell = %q", cell(0.0001, ""))
	}
	if cell(0.5, "") != "0.500s" {
		t.Fatalf("cell = %q", cell(0.5, ""))
	}
	if cell(12.345, "") != "12.35s" {
		t.Fatalf("cell = %q", cell(12.345, ""))
	}
	if cell(1, "OOM*") != "OOM*" {
		t.Fatal("note should win")
	}
}

func TestSpeedupFormatting(t *testing.T) {
	if got := speedup(measurement{seconds: 2}, measurement{seconds: 1}); got != "2.00x" {
		t.Fatalf("speedup = %q", got)
	}
	if got := speedup(measurement{note: "OOM*"}, measurement{seconds: 1}); got != "-" {
		t.Fatalf("speedup with note = %q", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1 || c.Seed != 42 || c.StratCap != 12 || c.Workers < 4 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.scaled(1000) != 1000 {
		t.Fatal("scale 1 must be identity")
	}
	small := Config{Scale: 0.0001}.withDefaults()
	if small.scaled(1000) != 16 {
		t.Fatalf("floor = %d", small.scaled(1000))
	}
}

func TestStratifiedRewriteDivergesAndIsReported(t *testing.T) {
	// The stratified SSSP rewrite on a cyclic graph must hit the
	// iteration cap and be reported as OOM*, reproducing the paper's
	// Soufflé column.
	cfg := tiny()
	tb := Figure1(cfg)
	var stratCell string
	for _, row := range tb.Rows {
		if strings.HasPrefix(row[0], "Stratified") {
			stratCell = row[1]
		}
	}
	if stratCell == "" {
		t.Fatalf("stratified row missing:\n%s", render(t, tb))
	}
	// On the (cyclic) LiveJournal stand-in the rewrite diverges.
	if !strings.Contains(stratCell, "OOM") {
		t.Fatalf("stratified SSSP should report OOM*, got %q", stratCell)
	}
}
