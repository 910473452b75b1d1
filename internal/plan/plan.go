// Package plan is the Logical Planner of the Query Processor (paper
// §5.1): it maps each rule of an analyzed program onto an ordered
// operator pipeline. The recursive relation is always moved to the
// outer (leftmost) position of the join as the paper prescribes, the
// remaining atoms are ordered greedily by how many of their columns are
// already bound, selections are pushed to the earliest point at which
// their variables are bound, and every join is labeled with the
// hash/index/nested-loop heuristic of §5.2.1. The planner also derives
// the partitioning scheme of every derived predicate: the access paths
// (replica partition columns) that make inner recursive lookups local
// to their worker (§4.3), falling back to broadcast replication when no
// aligned partitioning exists — the strategy the paper attributes to
// SociaLite/DDlog for APSP.
package plan

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/pcg"
	"repro/internal/storage"
)

// JoinMethod labels the physical join algorithm chosen by the §5.2.1
// heuristic.
type JoinMethod uint8

const (
	// NestedLoopJoin scans the entire inner relation per outer binding.
	NestedLoopJoin JoinMethod = iota
	// IndexJoin probes an index on the inner relation's bound columns.
	IndexJoin
	// HashJoin probes a hash table shared by base tables with equal
	// join keys.
	HashJoin
)

// String names the method for EXPLAIN output.
func (m JoinMethod) String() string {
	switch m {
	case IndexJoin:
		return "index-join"
	case HashJoin:
		return "hash-join"
	default:
		return "nested-loop-join"
	}
}

// ElemKind discriminates pipeline elements.
type ElemKind uint8

const (
	// ElemAtom is a positive relational atom (scan or join).
	ElemAtom ElemKind = iota
	// ElemNeg is a negated atom (anti-join probe).
	ElemNeg
	// ElemCond is a filtering comparison.
	ElemCond
	// ElemLet is an equality that binds a fresh variable.
	ElemLet
)

// Elem is one element of a rule's ordered pipeline.
type Elem struct {
	Kind ElemKind
	// Atom is set for ElemAtom/ElemNeg.
	Atom *ast.Atom
	// Recursive marks atoms of the rule's own stratum.
	Recursive bool
	// BoundCols are the atom's columns whose variables are bound when
	// the element executes: the join/probe key.
	BoundCols []int
	// Method is the §5.2.1 join label (ElemAtom beyond the outer).
	Method JoinMethod
	// Cond is set for ElemCond and ElemLet.
	Cond *ast.Condition
	// LetVar is the variable an ElemLet binds.
	LetVar string
	// LetExpr is the bound expression of an ElemLet.
	LetExpr ast.Expr
	// EstFanout is the cost model's cardinality estimate for this
	// element when statistics were attached (WithStats) and cover the
	// atom's relation: estimated scan rows for the outer, estimated
	// matching rows per probe for an inner join. -1 means no estimate
	// (no stats, or the relation — e.g. an IDB predicate — is not in
	// the base snapshot).
	EstFanout float64
}

// RulePlan is the ordered pipeline for one rule, or for one delta
// variant of a recursive rule (one variant per recursive body atom
// serving as the delta-driven outer).
type RulePlan struct {
	Rule *ast.Rule
	// Variant numbers the delta variants of a recursive rule; -1 for
	// non-recursive rules.
	Variant int
	// Elems is the pipeline; Elems[0] is the outer scan.
	Elems []*Elem
	// OuterDelta reports whether the outer scans the delta of a
	// recursive predicate rather than a full relation.
	OuterDelta bool
	// OuterPath is the access path (partition columns of the outer
	// predicate) whose deltas drive this variant.
	OuterPath []int
	// InnerFull marks inner recursive atoms that read R∪δ instead of R
	// (elements before the delta position in the semi-naive expansion).
	InnerFull map[int]bool
}

// PredPlan captures how one derived predicate is stored and routed.
type PredPlan struct {
	Name   string
	Schema *storage.Schema
	Agg    storage.AggKind
	// GroupLen is the number of leading group-key columns (= arity for
	// set-semantics predicates).
	GroupLen int
	// Paths are the replica partition column sets; Paths[0] is the
	// primary replica that owns the authoritative result.
	Paths [][]int
	// Broadcast replicates the full relation on every worker instead
	// of partitioning (fallback when no aligned partitioning exists).
	Broadcast bool
}

// StratumPlan is the executable plan of one stratum.
type StratumPlan struct {
	Stratum *pcg.Stratum
	// Preds plans every predicate defined in this stratum.
	Preds map[string]*PredPlan
	// BaseRules seed the stratum (no recursive body atoms).
	BaseRules []*RulePlan
	// RecRules are the delta variants of the recursive rules.
	RecRules []*RulePlan
	// EstBaseDerived is the cost model's estimate of how many tuples
	// the stratum's base rules derive (pre-dedup, so comparable to
	// StratumStats.TuplesDerived for non-recursive strata): the sum
	// over base rules of outer rows × the product of inner fan-outs.
	// -1 when no statistics were attached or any base rule's outer
	// relation is outside the base snapshot.
	EstBaseDerived int64
}

// Plan is the logical plan of a whole program.
type Plan struct {
	Analysis *pcg.Analysis
	Strata   []*StratumPlan
}

// StatsProvider supplies base-relation statistics to the cost-based
// join ordering: row count plus an estimated distinct-value count per
// column. ok is false for relations outside the provider's snapshot
// (IDB predicates, magic predicates), for which the planner falls back
// to a fixed prior. engine.PreparedBase satisfies this structurally;
// the indirection keeps plan free of an engine import (engine already
// imports physical, which imports plan).
type StatsProvider interface {
	RelStats(name string) (rows int, distinct []int, ok bool)
}

// BuildOption tweaks planning.
type BuildOption func(*buildConfig)

type buildConfig struct {
	forceBroadcast bool
	stats          StatsProvider
}

// WithStats attaches base-relation statistics: inner atoms are then
// ordered by estimated probe fan-out (rows over the product of the
// bound columns' distinct counts, clamped at rows) instead of the
// static greediest-bound-columns heuristic, and the plan carries
// cardinality estimates for EXPLAIN and the served est-vs-actual
// counters. The paper's recursive-atom-outermost invariant is kept
// either way. A nil provider is identical to omitting the option.
func WithStats(sp StatsProvider) BuildOption {
	return func(c *buildConfig) { c.stats = sp }
}

// WithForceBroadcast makes every recursive predicate use broadcast
// replication instead of aligned partitioning — the strategy the paper
// attributes to SociaLite/DDlog for APSP (§7.2), kept as a baseline.
func WithForceBroadcast() BuildOption {
	return func(c *buildConfig) { c.forceBroadcast = true }
}

// Build derives the logical plan from an analyzed program.
func Build(a *pcg.Analysis, opts ...BuildOption) (*Plan, error) {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	p := &Plan{Analysis: a}
	for _, s := range a.Strata {
		sp, err := buildStratum(a, s, &cfg)
		if err != nil {
			return nil, err
		}
		p.Strata = append(p.Strata, sp)
	}
	return p, nil
}

func buildStratum(a *pcg.Analysis, s *pcg.Stratum, cfg *buildConfig) (*StratumPlan, error) {
	sp := &StratumPlan{Stratum: s, Preds: make(map[string]*PredPlan)}
	inStratum := make(map[string]bool)
	for _, pr := range s.Preds {
		inStratum[pr] = true
		agg := a.Aggregates[pr]
		schema := a.Schemas[pr]
		groupLen := schema.Arity()
		if agg != storage.AggNone {
			groupLen--
		}
		sp.Preds[pr] = &PredPlan{Name: pr, Schema: schema, Agg: agg, GroupLen: groupLen}
	}

	for _, r := range s.Rules {
		info := a.RuleInfoFor(s, r)
		if len(info.RecursiveAtoms) == 0 || !s.Recursive {
			rp, err := orderRule(r, -1, inStratum, cfg.stats)
			if err != nil {
				return nil, err
			}
			sp.BaseRules = append(sp.BaseRules, rp)
			continue
		}
		for v := range info.RecursiveAtoms {
			rp, err := orderRule(r, v, inStratum, cfg.stats)
			if err != nil {
				return nil, err
			}
			sp.RecRules = append(sp.RecRules, rp)
		}
	}

	if err := derivePaths(sp, cfg.forceBroadcast); err != nil {
		return nil, err
	}
	sp.EstBaseDerived = estimateBaseDerived(sp, cfg.stats)
	return sp, nil
}

// estimateBaseDerived applies the independence-assumption product over
// every base rule: outer rows times each inner join's fan-out. The
// result is comparable to the engine's pre-dedup TuplesDerived counter.
// It returns -1 (unknown) without stats, or when any base rule's
// pipeline contains an atom the stats don't cover — a partial sum would
// read as an underestimate rather than an unknown.
func estimateBaseDerived(sp *StratumPlan, stats StatsProvider) int64 {
	if stats == nil {
		return -1
	}
	total := 0.0
	for _, rp := range sp.BaseRules {
		est := 1.0 // a fact/condition-only rule derives one binding
		for _, e := range rp.Elems {
			if e.Kind != ElemAtom {
				continue
			}
			if e.EstFanout < 0 {
				return -1
			}
			est *= e.EstFanout
		}
		total += est
	}
	const maxEst = float64(1 << 62)
	if total > maxEst {
		total = maxEst
	}
	return int64(total)
}

// orderRule builds the pipeline for rule r. For variant ≥ 0, the
// variant-th recursive body atom becomes the delta-driven outer; for
// variant -1 the first body atom in program order is the outer. With
// stats attached, inner atoms are ordered by estimated probe fan-out;
// without, by the static greediest-bound-columns heuristic.
func orderRule(r *ast.Rule, variant int, inStratum map[string]bool, stats StatsProvider) (*RulePlan, error) {
	rp := &RulePlan{Rule: r, Variant: variant, InnerFull: make(map[int]bool)}

	type pending struct {
		lit      ast.Literal
		recIdx   int // ordinal among recursive atoms, else -1
		bodyPos  int
		consumed bool
	}
	var items []*pending
	recOrd := 0
	for i, l := range r.Body {
		it := &pending{lit: l, recIdx: -1, bodyPos: i}
		if atom, ok := l.(*ast.Atom); ok && inStratum[atom.Pred] {
			it.recIdx = recOrd
			recOrd++
		}
		items = append(items, it)
	}

	bound := map[string]bool{}
	bindAtomVars := func(atom *ast.Atom) {
		for _, t := range atom.Args {
			if v, ok := t.(*ast.Var); ok {
				bound[v.Name] = true
			}
		}
	}
	boundColsOf := func(atom *ast.Atom) []int {
		var cols []int
		for i, t := range atom.Args {
			switch x := t.(type) {
			case *ast.Var:
				if bound[x.Name] {
					cols = append(cols, i)
				}
			case *ast.Num, *ast.Str, *ast.Param:
				cols = append(cols, i)
			}
		}
		return cols
	}

	// estFanout is the cost model: expected matching rows per probe of
	// atom on cols, assuming column independence — rows over the product
	// of the bound columns' distinct counts, clamped to [1/rows-exact,
	// rows]. -1 when the relation is outside the stats snapshot.
	estFanout := func(atom *ast.Atom, cols []int) float64 {
		if stats == nil {
			return -1
		}
		rows, distinct, ok := stats.RelStats(atom.Pred)
		if !ok {
			return -1
		}
		if rows == 0 {
			return 0
		}
		keys := 1.0
		for _, c := range cols {
			if c < len(distinct) && distinct[c] > 1 {
				keys *= float64(distinct[c])
			}
		}
		if keys > float64(rows) {
			keys = float64(rows)
		}
		return float64(rows) / keys
	}

	// Choose and emit the outer.
	var outer *pending
	if variant >= 0 {
		for _, it := range items {
			if it.recIdx == variant {
				outer = it
				break
			}
		}
		rp.OuterDelta = true
	} else {
		for _, it := range items {
			if _, ok := it.lit.(*ast.Atom); ok {
				outer = it
				break
			}
		}
	}
	if outer != nil {
		atom := outer.lit.(*ast.Atom)
		outer.consumed = true
		rp.Elems = append(rp.Elems, &Elem{
			Kind:      ElemAtom,
			Atom:      atom,
			Recursive: inStratum[atom.Pred],
			EstFanout: estFanout(atom, nil), // outer: estimated scan rows
		})
		bindAtomVars(atom)
	}

	// flushConds emits every evaluable condition, let and negation.
	flushConds := func() {
		for changed := true; changed; {
			changed = false
			for _, it := range items {
				if it.consumed {
					continue
				}
				switch x := it.lit.(type) {
				case *ast.Condition:
					lb := exprBound(x.L, bound)
					rb := exprBound(x.R, bound)
					switch {
					case lb && rb:
						it.consumed, changed = true, true
						rp.Elems = append(rp.Elems, &Elem{Kind: ElemCond, Cond: x, EstFanout: -1})
					case x.Op == ast.Eq && !lb && rb:
						if v, ok := x.L.(*ast.Var); ok {
							it.consumed, changed = true, true
							bound[v.Name] = true
							rp.Elems = append(rp.Elems, &Elem{Kind: ElemLet, Cond: x, LetVar: v.Name, LetExpr: x.R, EstFanout: -1})
						}
					case x.Op == ast.Eq && lb && !rb:
						if v, ok := x.R.(*ast.Var); ok {
							it.consumed, changed = true, true
							bound[v.Name] = true
							rp.Elems = append(rp.Elems, &Elem{Kind: ElemLet, Cond: x, LetVar: v.Name, LetExpr: x.L, EstFanout: -1})
						}
					}
				case *ast.Negation:
					all := true
					for _, t := range x.Atom.Args {
						if v, ok := t.(*ast.Var); ok && !bound[v.Name] {
							all = false
							break
						}
					}
					if all {
						it.consumed, changed = true, true
						rp.Elems = append(rp.Elems, &Elem{Kind: ElemNeg, Atom: x.Atom, BoundCols: boundColsOf(x.Atom), EstFanout: -1})
					}
				}
			}
		}
	}

	// priorFanout reproduces the static heuristic's preferences on the
	// cost scale for relations without stats (IDB predicates, or no
	// provider): a fixed row prior shrunk by a fixed selectivity per
	// bound column, so more bound columns still probe first.
	const (
		priorRows   = float64(1 << 20)
		priorColSel = 4.0
	)

	flushConds()
	for {
		// Pick the cheapest unconsumed atom: smallest estimated probe
		// fan-out when stats cover it, 1 for an atom with every column
		// bound, the bound-column prior otherwise.
		// Ties prefer base tables (their indexes are free), then program
		// order. Without stats every atom with an unbound column uses the
		// prior, which orders like the original greediest-bound-columns
		// heuristic.
		var best *pending
		bestCost := 0.0
		bestBase := false
		for _, it := range items {
			if it.consumed {
				continue
			}
			atom, ok := it.lit.(*ast.Atom)
			if !ok {
				continue
			}
			cols := boundColsOf(atom)
			cost := estFanout(atom, cols)
			switch {
			case cost >= 0:
			case len(cols) == len(atom.Args):
				// Every column bound: an existence check that passes or
				// drops the row, so it costs a filter, not a join. This
				// places a demand guard right after its variables bind.
				cost = 1
			default:
				cost = priorRows
				for range cols {
					cost /= priorColSel
				}
			}
			isBase := !inStratum[atom.Pred]
			if best == nil || cost < bestCost || (cost == bestCost && isBase && !bestBase) {
				best, bestCost, bestBase = it, cost, isBase
			}
		}
		if best == nil {
			break
		}
		atom := best.lit.(*ast.Atom)
		best.consumed = true
		elem := &Elem{
			Kind:      ElemAtom,
			Atom:      atom,
			Recursive: inStratum[atom.Pred],
			BoundCols: boundColsOf(atom),
		}
		elem.EstFanout = estFanout(atom, elem.BoundCols)
		elem.Method = chooseMethod(r, atom, elem.BoundCols, inStratum)
		if elem.Recursive && variant >= 0 && best.recIdx < variant {
			// Semi-naive expansion: occurrences before the delta
			// position read R∪δ; later ones read R.
			rp.InnerFull[len(rp.Elems)] = true
		}
		rp.Elems = append(rp.Elems, elem)
		bindAtomVars(atom)
		flushConds()
	}

	for _, it := range items {
		if !it.consumed {
			return nil, fmt.Errorf("%s: cannot schedule %s (unbound variables)", r.Pos, it.lit)
		}
	}
	return rp, nil
}

// chooseMethod applies the paper's §5.2.1 heuristic: hash join when two
// or more base tables in the rule share identical join keys, index join
// when the probe has bound columns, nested loop otherwise.
func chooseMethod(r *ast.Rule, atom *ast.Atom, boundCols []int, inStratum map[string]bool) JoinMethod {
	if len(boundCols) == 0 {
		return NestedLoopJoin
	}
	if inStratum[atom.Pred] {
		return IndexJoin
	}
	// Look for another base atom sharing a variable at the same column
	// positions (the "same join keys" case).
	probe := map[string]bool{}
	for _, c := range boundCols {
		if v, ok := atom.Args[c].(*ast.Var); ok {
			probe[v.Name] = true
		}
	}
	for _, other := range r.Atoms() {
		if other == atom || inStratum[other.Pred] {
			continue
		}
		for _, t := range other.Args {
			if v, ok := t.(*ast.Var); ok && probe[v.Name] {
				return HashJoin
			}
		}
	}
	return IndexJoin
}

func exprBound(e ast.Expr, bound map[string]bool) bool {
	for _, v := range ast.Vars(e, nil) {
		if !bound[v] {
			return false
		}
	}
	return true
}
