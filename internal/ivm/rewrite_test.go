package ivm

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/parser"
	"repro/internal/pcg"
	"repro/internal/physical"
	"repro/internal/storage"
)

func intSchema(name string, cols ...string) *storage.Schema {
	cs := make([]storage.Column, len(cols))
	for i, c := range cols {
		cs[i] = storage.Column{Name: c, Type: storage.TInt}
	}
	return storage.NewSchema(name, cs...)
}

func analyze(t testing.TB, src string, schemas map[string]*storage.Schema) *pcg.Analysis {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a, err := pcg.Analyze(prog, schemas, nil)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

const tcSrc = `
	tc(X, Y) :- arc(X, Y).
	tc(X, Y) :- tc(X, Z), arc(Z, Y).
`

func tcSchemas() map[string]*storage.Schema {
	return map[string]*storage.Schema{"arc": intSchema("arc", "x", "y")}
}

// TestRewriteTC pins the generated delta programs for transitive
// closure: the insertion program seeds semi-naive evaluation from the
// batch and an anchored old-fixpoint slice under the live guard, the
// delete program over-deletes against the old snapshot with an
// edge-survives prune guard, and the re-derive program restricts
// re-evaluation to the killed set.
func TestRewriteTC(t *testing.T) {
	a := analyze(t, tcSrc, tcSchemas())
	if reason := ineligible(a); reason != "" {
		t.Fatalf("tc should be eligible, got %q", reason)
	}
	rw := buildRewrite(a)

	wantIns := []string{
		"tc__ivmd(X, Y) :- arc__ivmins(X, Y), !tc__ivmlive(X, Y).",
		"tc__ivmd(X, Y) :- arc__ivmins(Z, Y), tc__ivmsl0(X, Z), !tc__ivmlive(X, Y).",
		"tc__ivmd(X, Y) :- tc__ivmd(X, Z), arc(Z, Y), !tc__ivmlive(X, Y).",
	}
	for _, w := range wantIns {
		if !strings.Contains(rw.Ins.Source, w) {
			t.Errorf("ins program missing %q:\n%s", w, rw.Ins.Source)
		}
	}
	// Exactly one slice: old tc anchored on its second column joining
	// the inserted arc's first column.
	if len(rw.Ins.Slices) != 1 {
		t.Fatalf("ins slices = %+v, want 1", rw.Ins.Slices)
	}
	sl := rw.Ins.Slices[0]
	if sl.Pred != "tc" || sl.Src != "arc__ivmins" ||
		len(sl.Anchor) != 1 || sl.Anchor[0] != 1 ||
		len(sl.SrcCols) != 1 || sl.SrcCols[0] != 0 {
		t.Fatalf("ins slice = %+v", sl)
	}
	if rw.Ins.Deltas["tc__ivmd"] != "tc" {
		t.Fatalf("ins deltas = %v", rw.Ins.Deltas)
	}

	wantDel := []string{
		"tc__ivmdel(X, Y) :- arc__ivmdel(X, Y), !arc__ivmnew(X, Y).",
		"tc__ivmdel(X, Y) :- arc__ivmdel(Z, Y), tc__ivmsl0(X, Z), !arc__ivmnew(X, Y).",
		"tc__ivmdel(X, Y) :- tc__ivmdel(X, Z), arc__ivmold(Z, Y), !arc__ivmnew(X, Y).",
	}
	for _, w := range wantDel {
		if !strings.Contains(rw.Del.Source, w) {
			t.Errorf("del program missing %q:\n%s", w, rw.Del.Source)
		}
	}

	wantRed := []string{
		"tc__ivmred(X, Y) :- tc__ivmdelset(X, Y), arc__ivmnew(X, Y).",
		"tc__ivmred(X, Y) :- tc__ivmdelset(X, Y), tc__ivmsl0(X, Z), arc__ivmnew(Z, Y).",
		"tc__ivmred(X, Y) :- tc__ivmdelset(X, Y), tc__ivmred(X, Z), arc__ivmnew(Z, Y).",
	}
	for _, w := range wantRed {
		if !strings.Contains(rw.Red.Source, w) {
			t.Errorf("red program missing %q:\n%s", w, rw.Red.Source)
		}
	}
	// The kept-fixpoint slice anchors on the shared head variable X.
	rsl := rw.Red.Slices[0]
	if rsl.Pred != "tc" || rsl.Src != "tc__ivmdelset" ||
		len(rsl.Anchor) != 1 || rsl.Anchor[0] != 0 || rsl.SrcCols[0] != 0 {
		t.Fatalf("red slice = %+v", rsl)
	}

	// Each generated program must itself compile.
	syms := storage.NewSymbolTable()
	for name, src := range map[string]string{
		"ins": rw.Ins.Source, "del": rw.Del.Source, "red": rw.Red.Source,
	} {
		if _, _, err := compileText(src, tcSchemas(), nil, syms); err != nil {
			t.Errorf("%s program does not compile: %v\n%s", name, err, src)
		}
	}
}

// TestDeltaPlansUnchanged pins the logical plans a TC view runs — the
// full program and its insert, delete and re-derive programs, planned
// with the statistics of a view materialized over a binary tree — byte
// for byte in testdata/explain.
func TestDeltaPlansUnchanged(t *testing.T) {
	v, err := New(context.Background(), tcConfig(), map[string][]storage.Tuple{
		"arc": datasets.EdgeTuples(datasets.Tree(6, 2, 2, 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, prog := range map[string]*physical.Program{
		"full": v.full, "ins": v.insProg, "del": v.delProg, "red": v.redProg,
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "explain", "tc-"+name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := prog.Plan.Explain(); got != string(want) {
			t.Errorf("%s plan changed:\n--- got\n%s--- want\n%s", name, got, want)
		}
	}
}

// TestRewriteSameGeneration pins the eligibility gate of the
// same-generation query: two IDB atoms in one rule are outside the
// maintainable fragment.
func TestIneligible(t *testing.T) {
	cases := []struct {
		name, src string
		schemas   map[string]*storage.Schema
		want      string
	}{
		{
			"multi-idb",
			`sg(X, Y) :- arc(P, X), arc(Q, Y), sg(P, Q).
			 sg2(X, Y) :- sg(X, Z), sg(Z, Y).`,
			tcSchemas(),
			"multiple IDB atoms",
		},
		{
			"negation",
			`t(X, Y) :- arc(X, Y), !blocked(X, Y).`,
			map[string]*storage.Schema{
				"arc":     intSchema("arc", "x", "y"),
				"blocked": intSchema("blocked", "x", "y"),
			},
			"negation",
		},
		{
			"namespace",
			`t__ivmfoo(X, Y) :- arc(X, Y).`,
			tcSchemas(),
			"__ivm",
		},
	}
	for _, c := range cases {
		a := analyze(t, c.src, c.schemas)
		got := ineligible(a)
		if !strings.Contains(got, c.want) {
			t.Errorf("%s: ineligible = %q, want substring %q", c.name, got, c.want)
		}
	}
}

// TestPruneGuards pins the guard-extraction rules: constants are kept
// verbatim, non-variable heads and projected-away body variables
// disqualify a rule.
func TestPruneGuards(t *testing.T) {
	schemas := map[string]*storage.Schema{
		"e": intSchema("e", "x", "y"),
		"r": intSchema("r", "x", "y", "z"),
	}
	a := analyze(t, `
		t(X, Y) :- e(X, Y).
		t(X, Y) :- r(X, Y, 7).
		t(X, Y) :- t(X, Z), e(Z, Y).
	`, schemas)
	guards := pruneGuards(a, "t")
	if len(guards) != 2 {
		t.Fatalf("got %d guards, want 2: %+v", len(guards), guards)
	}
	if guards[0].rel != "e" || guards[1].rel != "r" {
		t.Fatalf("guard rels = %s, %s", guards[0].rel, guards[1].rel)
	}
	// r's third argument is the constant 7.
	g := guards[1]
	if len(g.args) != 3 || g.args[2].headPos != -1 {
		t.Fatalf("constant guard arg not preserved: %+v", g.args)
	}

	// A projection rule contributes no guard.
	a2 := analyze(t, `
		p(X) :- r(X, Y, Z).
		p(X) :- p(Y), e(Y, X).
	`, schemas)
	if gs := pruneGuards(a2, "p"); len(gs) != 0 {
		t.Fatalf("projection rule yielded guards: %+v", gs)
	}

	// A constant head argument disqualifies the rule.
	a3 := analyze(t, `
		q(X, 1) :- e(X, _).
		q(X, Y) :- q(X, Z), e(Z, Y).
	`, schemas)
	if gs := pruneGuards(a3, "q"); len(gs) != 0 {
		t.Fatalf("constant-head rule yielded guards: %+v", gs)
	}
}
