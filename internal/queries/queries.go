// Package queries ships the eight benchmark programs of the paper
// (§2.1, §4.3, §7.1.1) as ready-to-parse DCDatalog sources plus the EDB
// schema each one expects. The text matches the paper's rules with
// ASCII syntax.
package queries

import "repro/internal/storage"

// Query bundles a program's source with its input schema.
type Query struct {
	// Name is the short name used in the paper's tables (TC, SG, CC,
	// SSSP, PR, Delivery, APSP, Attend).
	Name string
	// Source is the DCDatalog program text.
	Source string
	// EDB lists the extensional schemas the program reads.
	EDB []*storage.Schema
	// Output is the result predicate of interest.
	Output string
	// Params lists required $parameters.
	Params []string
}

func intCols(names ...string) []storage.Column {
	cols := make([]storage.Column, len(names))
	for i, n := range names {
		cols[i] = storage.Column{Name: n, Type: storage.TInt}
	}
	return cols
}

// Arc is the unweighted edge schema arc(x, y).
func Arc() *storage.Schema { return storage.NewSchema("arc", intCols("x", "y")...) }

// WArc is the weighted edge schema warc(x, y, w).
func WArc() *storage.Schema { return storage.NewSchema("warc", intCols("x", "y", "w")...) }

// Matrix is PageRank's matrix(src, dst, outdeg) schema with a float
// degree column.
func Matrix() *storage.Schema {
	return storage.NewSchema("matrix",
		storage.Column{Name: "x", Type: storage.TInt},
		storage.Column{Name: "y", Type: storage.TInt},
		storage.Column{Name: "d", Type: storage.TFloat})
}

// TC is Query 1: transitive closure.
func TC() Query {
	return Query{
		Name:   "TC",
		Output: "tc",
		EDB:    []*storage.Schema{Arc()},
		Source: `
			tc(X, Y) :- arc(X, Y).
			tc(X, Y) :- tc(X, Z), arc(Z, Y).
		`,
	}
}

// CC is Query 2: connected components via min-label propagation.
func CC() Query {
	return Query{
		Name:   "CC",
		Output: "cc",
		EDB:    []*storage.Schema{Arc()},
		Source: `
			cc2(Y, min<Y>) :- arc(Y, _).
			cc2(Y, min<Z>) :- cc2(X, Z), arc(X, Y).
			cc(Y, min<Z>) :- cc2(Y, Z).
		`,
	}
}

// APSP is Query 3: all-pairs shortest paths, the non-linear recursion
// example.
func APSP() Query {
	return Query{
		Name:   "APSP",
		Output: "apsp",
		EDB:    []*storage.Schema{WArc()},
		Source: `
			path(A, B, min<D>) :- warc(A, B, D).
			path(A, B, min<D>) :- path(A, C, D1), path(C, B, D2), D = D1 + D2.
			apsp(A, B, min<D>) :- path(A, B, D).
		`,
	}
}

// Attend is Query 4: who will attend the party, the mutual recursion
// example.
func Attend() Query {
	return Query{
		Name:   "Attend",
		Output: "attend",
		EDB: []*storage.Schema{
			storage.NewSchema("organizer", intCols("x")...),
			storage.NewSchema("friend", intCols("y", "x")...),
		},
		Source: `
			attend(X) :- organizer(X).
			cnt(Y, count<X>) :- attend(X), friend(Y, X).
			attend(X) :- cnt(X, N), N >= 3.
		`,
	}
}

// SG is Query 5: same generation.
func SG() Query {
	return Query{
		Name:   "SG",
		Output: "sg",
		EDB:    []*storage.Schema{Arc()},
		Source: `
			sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.
			sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).
		`,
	}
}

// PR is Query 6: PageRank with the keyed sum aggregate. Parameters:
// $alpha (damping, e.g. 0.85) and $vnum (vertex count).
func PR() Query {
	return Query{
		Name:   "PR",
		Output: "results",
		EDB:    []*storage.Schema{Matrix()},
		Params: []string{"alpha", "vnum"},
		Source: `
			rank(X, sum<(X, I)>) :- matrix(X, _, _), I = (1 - $alpha) / $vnum.
			rank(X, sum<(Y, K)>) :- rank(Y, C), matrix(Y, X, D), K = $alpha * (C / D).
			results(X, V) :- rank(X, V).
		`,
	}
}

// SSSP is Query 7: single-source shortest path from $start.
func SSSP() Query {
	return Query{
		Name:   "SSSP",
		Output: "results",
		EDB:    []*storage.Schema{WArc()},
		Params: []string{"start"},
		Source: `
			sp(To, min<C>) :- To = $start, C = 0.
			sp(To2, min<C>) :- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.
			results(To, min<C>) :- sp(To, C).
		`,
	}
}

// Delivery is Query 8: the bill-of-materials delivery-time query with
// max in recursion.
func Delivery() Query {
	return Query{
		Name:   "Delivery",
		Output: "results",
		EDB: []*storage.Schema{
			storage.NewSchema("basic", intCols("p", "d")...),
			storage.NewSchema("assbl", intCols("p", "s")...),
		},
		Source: `
			delivery(P, max<D>) :- basic(P, D).
			delivery(P, max<D>) :- assbl(P, S), delivery(S, D).
			results(P, max<D>) :- delivery(P, D).
		`,
	}
}

// All returns every benchmark query.
func All() []Query {
	return []Query{TC(), CC(), APSP(), Attend(), SG(), PR(), SSSP(), Delivery()}
}

// BoundTC is the bound point-query variant of TC: vertices reachable
// from the single source $src. The consumer rule binds tc's first
// column to the parameter, which is exactly the shape the demand
// (magic-set) rewrite turns into a seeded recursion — the unrewritten
// program derives the full closure and filters afterwards.
func BoundTC() Query {
	return Query{
		Name:   "TC-bound",
		Output: "reach",
		EDB:    []*storage.Schema{Arc()},
		Params: []string{"src"},
		Source: `
			tc(X, Y) :- arc(X, Y).
			tc(X, Y) :- tc(X, Z), arc(Z, Y).
			reach(Y) :- tc($src, Y).
		`,
	}
}

// BoundTCRightLinear is BoundTC with the recursion on the right: the
// recursive atom's first column is a fresh variable, so the demand
// rewrite keeps the rule's guard.
func BoundTCRightLinear() Query {
	q := BoundTC()
	q.Name = "TC-bound-right"
	q.Source = `
		tc(X, Y) :- arc(X, Y).
		tc(X, Y) :- arc(X, Z), tc(Z, Y).
		reach(Y) :- tc($src, Y).
	`
	return q
}

// BoundTCNonLinear is BoundTC with two recursive atoms; the first
// carries the head's bound column, so the demand rewrite drops the
// rule's guard.
func BoundTCNonLinear() Query {
	q := BoundTC()
	q.Name = "TC-bound-nonlinear"
	q.Source = `
		tc(X, Y) :- arc(X, Y).
		tc(X, Y) :- tc(X, Z), tc(Z, Y).
		reach(Y) :- tc($src, Y).
	`
	return q
}

// BoundSG is the bound point-query variant of SG: the same-generation
// peers of the single vertex $v.
func BoundSG() Query {
	return Query{
		Name:   "SG-bound",
		Output: "peer",
		EDB:    []*storage.Schema{Arc()},
		Params: []string{"v"},
		Source: `
			sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.
			sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).
			peer(Y) :- sg($v, Y).
		`,
	}
}
