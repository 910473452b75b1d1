package rewrite

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/pcg"
	"repro/internal/storage"
)

func arcSchemas() map[string]*storage.Schema {
	arc := storage.NewSchema("arc",
		storage.Column{Name: "x", Type: storage.TInt},
		storage.Column{Name: "y", Type: storage.TInt})
	return map[string]*storage.Schema{"arc": arc}
}

func analyze(t *testing.T, src string, params map[string]storage.Type) *pcg.Analysis {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a, err := pcg.Analyze(prog, arcSchemas(), params)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

// reanalyze asserts the rewritten program is well-formed Datalog by
// pushing it back through the analyzer, as the compile pipeline does.
func reanalyze(t *testing.T, r *Result, params map[string]storage.Type) *pcg.Analysis {
	t.Helper()
	a, err := pcg.Analyze(r.Program, arcSchemas(), params)
	if err != nil {
		t.Fatalf("rewritten program failed analysis: %v\n%s", err, progText(r))
	}
	return a
}

func progText(r *Result) string {
	var b strings.Builder
	for _, rule := range r.Program.Rules {
		b.WriteString(rule.String())
		b.WriteString("\n")
	}
	return b.String()
}

var intParam = map[string]storage.Type{"src": storage.TInt}

const leftLinearBoundTC = `
	tc(X, Y) :- arc(X, Y).
	tc(X, Y) :- tc(X, Z), arc(Z, Y).
	reach(Y) :- tc($src, Y).
`

func TestApplyLeftLinearBoundTC(t *testing.T) {
	r := Apply(analyze(t, leftLinearBoundTC, intParam))
	if !r.Rewritten() {
		t.Fatalf("not rewritten; declined: %v", r.Declined)
	}
	if len(r.Magic) != 1 || r.Magic[0] != "tc__magic" {
		t.Fatalf("Magic = %v, want [tc__magic]", r.Magic)
	}
	if !r.Restricted["tc"] {
		t.Fatalf("Restricted = %v, want tc", r.Restricted)
	}
	text := progText(r)
	// The seed rule carries the demand constant, and every recursive
	// rule is guarded by the magic predicate.
	if !strings.Contains(text, "$src") || !strings.Contains(text, "tc__magic") {
		t.Fatalf("rewritten program lacks seed or guard:\n%s", text)
	}
	reanalyze(t, r, intParam)
}

func TestApplyRightLinearAndNonLinearTC(t *testing.T) {
	for name, src := range map[string]string{
		"right-linear": `
			tc(X, Y) :- arc(X, Y).
			tc(X, Y) :- arc(X, Z), tc(Z, Y).
			reach(Y) :- tc($src, Y).
		`,
		"non-linear": `
			tc(X, Y) :- arc(X, Y).
			tc(X, Y) :- tc(X, Z), tc(Z, Y).
			reach(Y) :- tc($src, Y).
		`,
	} {
		t.Run(name, func(t *testing.T) {
			r := Apply(analyze(t, src, intParam))
			if !r.Rewritten() {
				t.Fatalf("not rewritten; declined: %v", r.Declined)
			}
			reanalyze(t, r, intParam)
		})
	}
}

func TestApplyBoundSG(t *testing.T) {
	src := `
		sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.
		sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).
		peer(Y) :- sg($src, Y).
	`
	r := Apply(analyze(t, src, intParam))
	if !r.Rewritten() {
		t.Fatalf("not rewritten; declined: %v", r.Declined)
	}
	if !r.Restricted["sg"] {
		t.Fatalf("Restricted = %v, want sg", r.Restricted)
	}
	reanalyze(t, r, intParam)
}

func TestApplyNegatedExternalSite(t *testing.T) {
	// The negated occurrence binds the same σ column as the positive
	// one, so the demanded group is fully derived and the anti-join
	// stays exact: the rewrite may proceed.
	src := `
		tc(X, Y) :- arc(X, Y).
		tc(X, Y) :- tc(X, Z), arc(Z, Y).
		missing(Y) :- arc(_, Y), !tc($src, Y).
	`
	r := Apply(analyze(t, src, intParam))
	if !r.Rewritten() {
		t.Fatalf("not rewritten; declined: %v", r.Declined)
	}
	reanalyze(t, r, intParam)
}

func TestApplyDeclines(t *testing.T) {
	cases := map[string]struct {
		src    string
		reason string // substring the declined message must carry
	}{
		"no external site": {
			src: `
				tc(X, Y) :- arc(X, Y).
				tc(X, Y) :- tc(X, Z), arc(Z, Y).
			`,
			reason: "no occurrence outside",
		},
		"unbound external site": {
			src: `
				tc(X, Y) :- arc(X, Y).
				tc(X, Y) :- tc(X, Z), arc(Z, Y).
				out(X, Y) :- tc(X, Y).
			`,
			reason: "",
		},
		"aggregated clique": {
			src: `
				sp(Y, min<C>) :- Y = $src, C = 0.
				sp(Y, min<C>) :- sp(X, C1), arc(X, Y), C = C1 + 1.
				out(C) :- sp($src, C).
			`,
			reason: "aggregate",
		},
		"second column bound, left-linear": {
			// Demand on tc's column 2 cannot propagate through a
			// left-to-right SIPS walk of tc(X, Z), arc(Z, Y): the
			// recursive occurrence binds neither column, so σ empties.
			src: `
				tc(X, Y) :- arc(X, Y).
				tc(X, Y) :- tc(X, Z), arc(Z, Y).
				sources(X) :- tc(X, $src).
			`,
			reason: "",
		},
		"reserved namespace": {
			src: `
				tc__magic(X) :- arc(X, _).
				tc(X, Y) :- tc__magic(X), arc(X, Y).
				out(Y) :- tc($src, Y).
			`,
			reason: "reserved",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			r := Apply(analyze(t, tc.src, intParam))
			if r.Rewritten() {
				t.Fatalf("rewritten, want decline:\n%s", progText(r))
			}
			if len(r.Declined) == 0 {
				t.Fatal("no declined reason recorded")
			}
			if tc.reason != "" && !strings.Contains(strings.Join(r.Declined, "; "), tc.reason) {
				t.Fatalf("declined = %v, want substring %q", r.Declined, tc.reason)
			}
		})
	}
}

// guardedHeads returns, per clique rule of pred in the rewritten
// program, whether its body starts with pred's demand guard.
func guardedHeads(r *Result, pred string) map[string]bool {
	out := make(map[string]bool)
	for _, rule := range r.Program.Rules {
		if rule.Head.Pred != pred {
			continue
		}
		first, ok := rule.Body[0].(*ast.Atom)
		body := rule.String()
		if ok && first.Pred == MagicName(pred) {
			body = (&ast.Rule{Head: rule.Head, Body: rule.Body[1:]}).String()
		}
		out[body] = ok && first.Pred == MagicName(pred)
	}
	return out
}

// TestElideImpliedGuard: a clique rule whose positive body atom of the
// head's own predicate carries the head's terms on every σ column keeps
// its original body, and Result.Elided names the guard and the atom;
// the rules without such an atom stay guarded.
func TestElideImpliedGuard(t *testing.T) {
	cases := map[string]struct {
		src  string
		pred string
		// want maps each clique rule, as written, to whether it keeps
		// its guard.
		want map[string]bool
		by   []string // the implying atom of each elision, in order
	}{
		"left-linear TC": {
			src:  leftLinearBoundTC,
			pred: "tc",
			want: map[string]bool{
				"tc(X, Y) :- arc(X, Y).":           true,
				"tc(X, Y) :- tc(X, Z), arc(Z, Y).": false,
			},
			by: []string{"tc(X, Z)"},
		},
		"non-linear TC": {
			src: `
				tc(X, Y) :- arc(X, Y).
				tc(X, Y) :- tc(X, Z), tc(Z, Y).
				reach(Y) :- tc($src, Y).
			`,
			pred: "tc",
			want: map[string]bool{
				"tc(X, Y) :- arc(X, Y).":          true,
				"tc(X, Y) :- tc(X, Z), tc(Z, Y).": false,
			},
			by: []string{"tc(X, Z)"},
		},
		"constant at a σ column": {
			src: `
				p(1, Y) :- arc(1, Y).
				p(1, Y) :- p(1, Z), arc(Z, Y).
				out(Y) :- p(1, Y).
			`,
			pred: "p",
			want: map[string]bool{
				"p(1, Y) :- arc(1, Y).":          true,
				"p(1, Y) :- p(1, Z), arc(Z, Y).": false,
			},
			by: []string{"p(1, Z)"},
		},
		"right-linear TC": {
			src: `
				tc(X, Y) :- arc(X, Y).
				tc(X, Y) :- arc(X, Z), tc(Z, Y).
				reach(Y) :- tc($src, Y).
			`,
			pred: "tc",
			want: map[string]bool{
				"tc(X, Y) :- arc(X, Y).":           true,
				"tc(X, Y) :- arc(X, Z), tc(Z, Y).": true,
			},
		},
		"SG": {
			src: `
				sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.
				sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).
				peer(Y) :- sg($src, Y).
			`,
			pred: "sg",
			want: map[string]bool{
				"sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.":   true,
				"sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).": true,
			},
		},
		"other clique predicate": {
			// q(X, Z) carries p's head term at σ, but it is q's tuple:
			// nothing says X is demanded of p.
			src: `
				p(X, Y) :- arc(X, Y).
				p(X, Y) :- q(X, Z), arc(Z, Y).
				q(X, Y) :- p(X, Y).
				out(Y) :- p($src, Y).
			`,
			pred: "p",
			want: map[string]bool{
				"p(X, Y) :- arc(X, Y).":          true,
				"p(X, Y) :- q(X, Z), arc(Z, Y).": true,
			},
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			r := Apply(analyze(t, c.src, intParam))
			if !r.Rewritten() {
				t.Fatalf("not rewritten; declined: %v", r.Declined)
			}
			got := guardedHeads(r, c.pred)
			for rule, guarded := range c.want {
				g, ok := got[rule]
				if !ok {
					t.Fatalf("rule %q missing from the rewritten program:\n%s", rule, progText(r))
				}
				if g != guarded {
					t.Errorf("rule %q guarded = %v, want %v:\n%s", rule, g, guarded, progText(r))
				}
			}
			if len(r.Elided) != len(c.by) {
				t.Fatalf("Elided = %v, want %d elisions", r.Elided, len(c.by))
			}
			for i, e := range r.Elided {
				if e.By.String() != c.by[i] || e.Guard.Pred != MagicName(c.pred) {
					t.Errorf("Elided[%d] = %s, want the guard implied by %s", i, e, c.by[i])
				}
			}
			// Demand still propagates from the guard: the magic
			// predicate keeps its seed and the program re-analyzes.
			if !strings.Contains(progText(r), MagicName(c.pred)+"(MV0) :- ") {
				t.Errorf("no seed rule:\n%s", progText(r))
			}
			reanalyze(t, r, intParam)
		})
	}
}

// TestImpliedByNeedsSamePositiveAtom pins the elision test on rules the
// analyzer would reject or that Apply cannot reach: only a positive atom
// of the head's predicate with the head's own terms on σ implies the
// guard.
func TestImpliedByNeedsSamePositiveAtom(t *testing.T) {
	cases := []struct {
		rule  string
		sigma []int
		want  string // the implying atom, "" for none
	}{
		{`p(X, Y) :- p(X, Z), arc(Z, Y).`, []int{0}, "p(X, Z)"},
		{`p(X, Y) :- arc(X, Z), p(X, Y).`, []int{0, 1}, "p(X, Y)"},
		{`p(X, Y) :- p(Y, X), arc(X, Y).`, []int{0}, ""},
		{`p(X, Y) :- p(X, Z), arc(Z, Y).`, []int{0, 1}, ""},
		{`p(X, Y) :- arc(X, Y), !p(X, Y).`, []int{0}, ""},
		{`p(1, Y) :- p(2, Z), arc(Z, Y).`, []int{0}, ""},
		{`p(1, Y) :- p(1.0, Z), arc(Z, Y).`, []int{0}, ""},
		{`p($a, Y) :- p($b, Z), arc(Z, Y).`, []int{0}, ""},
		{`p($a, Y) :- p($a, Z), arc(Z, Y).`, []int{0}, "p($a, Z)"},
	}
	for _, c := range cases {
		prog, err := parser.Parse(c.rule)
		if err != nil {
			t.Fatalf("%s: %v", c.rule, err)
		}
		got := ""
		if by := impliedBy(prog.Rules[0], c.sigma); by != nil {
			got = by.String()
		}
		if got != c.want {
			t.Errorf("impliedBy(%s, σ=%v) = %q, want %q", c.rule, c.sigma, got, c.want)
		}
	}
}

func TestMagicNaming(t *testing.T) {
	if MagicName("tc") != "tc__magic" {
		t.Fatalf("MagicName = %q", MagicName("tc"))
	}
	if !IsMagic("tc__magic") || IsMagic("tc") {
		t.Fatal("IsMagic misclassifies")
	}
}
