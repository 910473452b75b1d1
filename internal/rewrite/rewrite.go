// Package rewrite implements the demand-driven (magic-set) program
// transformation: when a recursive predicate is only consumed through
// occurrences that bind columns to constants or $params, the clique's
// rules are guarded by generated magic predicates that seed the
// recursion from the bound values, so the engine derives just the
// demanded subset instead of the full fixpoint. The rewritten program
// is ordinary Datalog — it re-analyzes through pcg and evaluates on
// the unmodified kernel, exchange and stealing planes, exactly like
// the ivm delta programs.
//
// The transform is applied per recursive clique and declined — never
// failing, just skipped — when it cannot be proven semantics-
// preserving for the demanded values:
//
//   - any clique predicate carries an aggregate (restricting the
//     contributor set would change min/max/sum/count results);
//   - the clique has no occurrence outside itself (nothing states a
//     demand, so guarding would empty an output relation);
//   - some external occurrence binds none of the columns every other
//     occurrence binds (σ, the adorned column set, becomes empty — the
//     demand cannot be seeded from constants);
//   - a clique predicate would end up with an empty magic program
//     (its extent would be silently emptied).
//
// Soundness notes. σ_p is the intersection of the constant-bound
// columns of every external occurrence of p with the bound columns of
// every occurrence of p inside the clique (under a left-to-right
// sideways-information-passing walk seeded from the head's σ
// variables), iterated to a fixpoint; every external occurrence
// therefore carries constants on all of σ_p, which also makes negated
// external occurrences sound: the demanded σ-group is fully derived,
// so the anti-join's membership answers are exact. Magic-rule bodies
// keep only the positive prefix (skipping a prefix negation
// over-approximates demand, which is sound). A clique rule with a
// positive body atom of its head's predicate carrying the head's terms
// on σ gets no guard: that atom already implies it (impliedBy, recorded
// in Result.Elided). Within a rewritten
// clique the predicates' extents become the demanded subset — callers
// reading a restricted relation directly observe that subset, which
// dcdatalog documents and its differential tests pin.
package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/pcg"
	"repro/internal/storage"
)

// Suffix is the reserved magic-predicate namespace: p's demand
// predicate is p+Suffix. Programs already using the namespace are
// never rewritten.
const Suffix = "__magic"

// MagicName returns the demand predicate's name for pred.
func MagicName(pred string) string { return pred + Suffix }

// IsMagic reports whether a relation name is a generated demand
// predicate (used by serving layers to hide them from default output).
func IsMagic(name string) bool { return strings.HasSuffix(name, Suffix) }

// Result describes one Apply outcome.
type Result struct {
	// Program is the rewritten program; nil when no clique was
	// rewritten (Declined says why).
	Program *ast.Program
	// Magic lists the generated demand predicates.
	Magic []string
	// Restricted marks the clique predicates whose extent is now the
	// demanded subset rather than the full fixpoint.
	Restricted map[string]bool
	// Declined collects one human-readable reason per clique (or
	// program-wide condition) the transform skipped.
	Declined []string
	// Elided lists the clique rules left without a demand guard because
	// a positive body atom of the head's own predicate already implies
	// it, in program order.
	Elided []Elision
}

// Elision records one demand guard the rewrite did not prepend.
type Elision struct {
	// Rule is the clique rule, which appears unchanged in Program.
	Rule *ast.Rule
	// Guard is the magic atom the rule would otherwise start with.
	Guard *ast.Atom
	// By is the body atom whose matches all satisfy Guard.
	By *ast.Atom
}

// String renders the elision for EXPLAIN.
func (e Elision) String() string {
	return fmt.Sprintf("guard %s elided, implied by %s in %s", e.Guard, e.By, e.Rule)
}

// Rewritten reports whether Apply produced a transformed program.
func (r *Result) Rewritten() bool { return r.Program != nil }

// Apply runs the demand transform over an analyzed program. It never
// errors: cliques that cannot be soundly rewritten are declined with a
// reason, and when none qualifies the result carries a nil Program.
func Apply(a *pcg.Analysis) *Result {
	res := &Result{Restricted: make(map[string]bool)}
	for name := range a.Schemas {
		if strings.Contains(name, Suffix) {
			res.Declined = append(res.Declined, fmt.Sprintf("program uses the reserved %s namespace (%s)", Suffix, name))
			return res
		}
	}

	var cliques []*cliqueRewrite
	for _, s := range a.Strata {
		if !s.Recursive {
			continue
		}
		c, reason := planClique(a, s)
		if reason != "" {
			res.Declined = append(res.Declined, reason)
			continue
		}
		cliques = append(cliques, c)
	}
	if len(cliques) == 0 {
		return res
	}

	// Assemble: guarded rules replace the cliques' originals in place,
	// magic seed and propagation rules append at the end. Input AST
	// nodes are shared, never mutated; replaced rules are fresh.
	guarded := make(map[*ast.Rule]*ast.Rule)
	for _, c := range cliques {
		for orig, g := range c.guarded {
			guarded[orig] = g
		}
		for p := range c.preds {
			res.Restricted[p] = true
		}
		res.Magic = append(res.Magic, c.magicNames...)
		res.Elided = append(res.Elided, c.elided...)
	}
	prog := &ast.Program{Decls: a.Program.Decls}
	for _, r := range a.Program.Rules {
		if g, ok := guarded[r]; ok {
			prog.Rules = append(prog.Rules, g)
		} else {
			prog.Rules = append(prog.Rules, r)
		}
	}
	for _, c := range cliques {
		prog.Rules = append(prog.Rules, c.magicRules...)
	}
	sort.Strings(res.Magic)
	res.Program = prog
	return res
}

// site is one occurrence of a clique predicate outside the clique:
// the demand statement the rewrite seeds from.
type site struct {
	atom    *ast.Atom
	negated bool
}

// cliqueRewrite is the planned transform of one recursive clique.
type cliqueRewrite struct {
	preds      map[string]bool
	sigma      map[string][]int // sorted adorned (bound) columns per pred
	guarded    map[*ast.Rule]*ast.Rule
	magicRules []*ast.Rule
	magicNames []string
	elided     []Elision
}

// planClique adorns one recursive stratum and generates its transform,
// or returns a decline reason.
func planClique(a *pcg.Analysis, s *pcg.Stratum) (*cliqueRewrite, string) {
	cliqueName := fmt.Sprintf("clique {%s}", strings.Join(s.Preds, ", "))
	preds := make(map[string]bool, len(s.Preds))
	for _, p := range s.Preds {
		if a.Aggregates[p] != storage.AggNone {
			return nil, fmt.Sprintf("%s: %s is aggregated; restricting contributors would change its result", cliqueName, p)
		}
		preds[p] = true
	}

	// Demand sites: every occurrence of a clique predicate in a rule
	// whose head lies outside the clique.
	sites := make(map[string][]site)
	nSites := 0
	for _, r := range a.Program.Rules {
		if preds[r.Head.Pred] {
			continue
		}
		for _, l := range r.Body {
			switch x := l.(type) {
			case *ast.Atom:
				if preds[x.Pred] {
					sites[x.Pred] = append(sites[x.Pred], site{atom: x})
					nSites++
				}
			case *ast.Negation:
				if preds[x.Atom.Pred] {
					sites[x.Atom.Pred] = append(sites[x.Atom.Pred], site{atom: x.Atom, negated: true})
					nSites++
				}
			}
		}
	}
	if nSites == 0 {
		return nil, fmt.Sprintf("%s: no occurrence outside the clique states a demand", cliqueName)
	}

	// Adornment fixpoint: σ_p starts at every column, intersects the
	// constant-bound columns of each external site, then shrinks
	// against the bound columns of every in-clique occurrence under the
	// SIPS walk (whose bound sets themselves depend on σ) until stable.
	sigma := make(map[string]map[int]bool, len(preds))
	for p := range preds {
		cols := make(map[int]bool)
		for i := 0; i < a.Schemas[p].Arity(); i++ {
			cols[i] = true
		}
		for _, st := range sites[p] {
			cc := constCols(st.atom)
			for c := range cols {
				if !cc[c] {
					delete(cols, c)
				}
			}
		}
		if len(cols) == 0 {
			return nil, fmt.Sprintf("%s: external occurrences of %s bind no common column to a constant or $param", cliqueName, p)
		}
		sigma[p] = cols
	}
	for changed := true; changed; {
		changed = false
		for _, r := range s.Rules {
			walkRule(r, preds, sigma, func(occ *ast.Atom, bound map[string]bool, _ []ast.Literal) {
				occBound := boundCols(occ, bound)
				for c := range sigma[occ.Pred] {
					if !occBound[c] {
						delete(sigma[occ.Pred], c)
						changed = true
					}
				}
			})
		}
	}
	for p := range preds {
		if len(sigma[p]) == 0 {
			return nil, fmt.Sprintf("%s: adornment of %s is empty after demand propagation", cliqueName, p)
		}
	}
	sortedSigma := make(map[string][]int, len(sigma))
	for p, cols := range sigma {
		var cs []int
		for c := range cols {
			cs = append(cs, c)
		}
		sort.Ints(cs)
		sortedSigma[p] = cs
	}

	c := &cliqueRewrite{preds: preds, sigma: sortedSigma, guarded: make(map[*ast.Rule]*ast.Rule)}

	// Seed rules: one per distinct external-site binding, in the
	// proven condition form `p__magic(V0, ...) :- V0 = <const>, ...`
	// (the same shape SSSP's parameterized seed rule compiles through).
	seen := make(map[string]bool)
	ruleCount := make(map[string]int)
	addMagic := func(r *ast.Rule) {
		key := r.String()
		if seen[key] {
			return
		}
		seen[key] = true
		c.magicRules = append(c.magicRules, r)
		ruleCount[r.Head.Pred]++
	}
	var sitePreds []string
	for p := range sites {
		sitePreds = append(sitePreds, p)
	}
	sort.Strings(sitePreds)
	for _, p := range sitePreds {
		for _, st := range sites[p] {
			head := &ast.Atom{Pred: MagicName(p)}
			var body []ast.Literal
			for i, col := range sortedSigma[p] {
				v := &ast.Var{Name: fmt.Sprintf("MV%d", i)}
				head.Args = append(head.Args, v)
				body = append(body, &ast.Condition{Op: ast.Eq, L: v, R: st.atom.Args[col].(ast.Expr)})
			}
			addMagic(&ast.Rule{Head: head, Body: body})
		}
	}

	// Guarded rules and magic propagation rules, one pass per clique
	// rule: the guard probes the head's demand, and every in-clique
	// occurrence propagates demand through the positive prefix. A rule
	// whose own body already implies the guard keeps its original body.
	for _, r := range s.Rules {
		guard := &ast.Atom{Pred: MagicName(r.Head.Pred)}
		for _, col := range sortedSigma[r.Head.Pred] {
			guard.Args = append(guard.Args, r.Head.Args[col])
		}
		if by := impliedBy(r, sortedSigma[r.Head.Pred]); by != nil {
			c.elided = append(c.elided, Elision{Rule: r, Guard: guard, By: by})
		} else {
			body := make([]ast.Literal, 0, len(r.Body)+1)
			body = append(body, guard)
			body = append(body, r.Body...)
			c.guarded[r] = &ast.Rule{Pos: r.Pos, Head: r.Head, Body: body}
		}

		walkRule(r, preds, sigma, func(occ *ast.Atom, bound map[string]bool, prefix []ast.Literal) {
			mhead := &ast.Atom{Pred: MagicName(occ.Pred)}
			for _, col := range sortedSigma[occ.Pred] {
				mhead.Args = append(mhead.Args, occ.Args[col])
			}
			// Skip the trivial self-loop m(X) :- m(X): an empty prefix
			// propagating a head's own demand unchanged.
			if len(prefix) == 0 && mhead.Pred == guard.Pred && termsEqual(mhead.Args, guard.Args) {
				return
			}
			mbody := make([]ast.Literal, 0, len(prefix)+1)
			mbody = append(mbody, guard)
			mbody = append(mbody, prefix...)
			addMagic(&ast.Rule{Head: mhead, Body: mbody})
		})
	}

	for p := range preds {
		if ruleCount[MagicName(p)] == 0 {
			return nil, fmt.Sprintf("%s: no demand reaches %s; guarding would empty it", cliqueName, p)
		}
	}
	for p := range preds {
		c.magicNames = append(c.magicNames, MagicName(p))
	}
	sort.Strings(c.magicNames)
	return c, ""
}

// impliedBy returns a positive body atom of r's head predicate that
// carries the head's terms at every σ column, or nil. Such an atom makes
// the head's guard redundant, by induction over derivations: every
// tuple of the predicate comes from a rule that either carries the
// guard or is elided by this same test, and magic relations only grow,
// so the atom only matches tuples whose σ-projection — the head's — is
// already demanded.
func impliedBy(r *ast.Rule, sigma []int) *ast.Atom {
next:
	for _, l := range r.Body {
		atom, ok := l.(*ast.Atom)
		if !ok || atom.Pred != r.Head.Pred {
			continue
		}
		for _, col := range sigma {
			if !termEqual(atom.Args[col], r.Head.Args[col]) {
				continue next
			}
		}
		return atom
	}
	return nil
}

// walkRule simulates the left-to-right sideways-information-passing
// pass over one clique rule: variables start bound at the head's σ
// columns, conditions flush as they become evaluable (Eq-lets bind),
// and each positive atom binds its variables after it is consumed.
// visit is called at every in-clique occurrence with the bound-variable
// set and the positive prefix (consumed atoms, conditions and lets, in
// order) as of that occurrence. Negations never join the prefix:
// skipping them over-approximates demand, which is sound.
func walkRule(r *ast.Rule, preds map[string]bool, sigma map[string]map[int]bool, visit func(occ *ast.Atom, bound map[string]bool, prefix []ast.Literal)) {
	bound := make(map[string]bool)
	for col := range sigma[r.Head.Pred] {
		if v, ok := r.Head.Args[col].(*ast.Var); ok {
			bound[v.Name] = true
		}
	}
	var prefix []ast.Literal
	consumed := make([]bool, len(r.Body))

	flush := func() {
		for changed := true; changed; {
			changed = false
			for i, l := range r.Body {
				if consumed[i] {
					continue
				}
				cond, ok := l.(*ast.Condition)
				if !ok {
					continue
				}
				lb := exprBound(cond.L, bound)
				rb := exprBound(cond.R, bound)
				switch {
				case lb && rb:
					consumed[i], changed = true, true
					prefix = append(prefix, cond)
				case cond.Op == ast.Eq && !lb && rb:
					if v, isVar := cond.L.(*ast.Var); isVar {
						consumed[i], changed = true, true
						bound[v.Name] = true
						prefix = append(prefix, cond)
					}
				case cond.Op == ast.Eq && lb && !rb:
					if v, isVar := cond.R.(*ast.Var); isVar {
						consumed[i], changed = true, true
						bound[v.Name] = true
						prefix = append(prefix, cond)
					}
				}
			}
		}
	}

	flush()
	for i, l := range r.Body {
		if consumed[i] {
			continue
		}
		atom, ok := l.(*ast.Atom)
		if !ok {
			// Negation: skipped — it neither binds variables nor joins
			// the prefix. (In-clique negation cannot occur: pcg rejects
			// non-stratified programs.)
			consumed[i] = true
			continue
		}
		if preds[atom.Pred] {
			visit(atom, bound, prefix)
		}
		consumed[i] = true
		for _, t := range atom.Args {
			if v, isVar := t.(*ast.Var); isVar {
				bound[v.Name] = true
			}
		}
		prefix = append(prefix, atom)
		flush()
	}
}

// constCols returns the atom's columns holding a constant or $param.
func constCols(atom *ast.Atom) map[int]bool {
	out := make(map[int]bool)
	for i, t := range atom.Args {
		switch t.(type) {
		case *ast.Num, *ast.Str, *ast.Param:
			out[i] = true
		}
	}
	return out
}

// boundCols returns the atom's columns holding a constant, $param, or
// a bound variable.
func boundCols(atom *ast.Atom, bound map[string]bool) map[int]bool {
	out := constCols(atom)
	for i, t := range atom.Args {
		if v, ok := t.(*ast.Var); ok && bound[v.Name] {
			out[i] = true
		}
	}
	return out
}

func exprBound(e ast.Expr, bound map[string]bool) bool {
	for _, v := range ast.Vars(e, nil) {
		if !bound[v] {
			return false
		}
	}
	return true
}

func termsEqual(a, b []ast.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !termEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// termEqual compares two terms structurally: the same variable, the
// same literal of the same kind, or the same parameter.
func termEqual(a, b ast.Term) bool {
	switch x := a.(type) {
	case *ast.Var:
		y, ok := b.(*ast.Var)
		return ok && x.Name == y.Name
	case *ast.Num:
		y, ok := b.(*ast.Num)
		return ok && *x == *y
	case *ast.Str:
		y, ok := b.(*ast.Str)
		return ok && x.Val == y.Val
	case *ast.Param:
		y, ok := b.(*ast.Param)
		return ok && x.Name == y.Name
	}
	return false
}
