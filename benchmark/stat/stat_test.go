package stat

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, since the acceptance check
// computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(5), 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
	} {
		s := Summarize(tc.xs)
		if s.Q1 != tc.q1 || s.Median != tc.med || s.Q3 != tc.q3 || s.N != len(tc.xs) {
			t.Errorf("Summarize(%v) = %+v, want quartiles %v %v %v", tc.xs, s, tc.q1, tc.med, tc.q3)
		}
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want the zero Summary", s)
	}
	if s := Summarize([]float64{4, 4, 4}); !s.Exact || s.Spread() != 0 {
		t.Errorf("three equal samples: %+v, want exact with no spread", s)
	}
	if got := Summarize(seq(10)).Spread(); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestTailRule: the reported tail is the highest percentile, at most
// the 99th, with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		{0, 0, 0},
		{5, 3, 50},    // too few for any tail: the median stands in
		{10, 5.5, 50}, // ten samples leave none with ten beyond it
		{11, 6, 50},   // ten lie beyond the lowest of eleven, but that is no tail
		{20, 10.5, 50},
		{21, 11, 100 * 11.0 / 21},
		{100, 90, 90},     // ten beyond the 90th of a hundred
		{999, 989, 98.99}, // one short of supporting a p99
		{1000, 990, 99},
		{5000, 4950, 99}, // never past the 99th however many samples
	} {
		value, pct := Tail(seq(tc.n))
		if value != tc.value || math.Abs(pct-tc.pct) > 0.01 {
			t.Errorf("Tail(1..%d) = %v at p%v, want %v at p%v", tc.n, value, pct, tc.value, tc.pct)
		}
		if tc.n > 20 {
			if above := tc.n - int(value); above < 10 {
				t.Errorf("Tail(1..%d): only %d samples beyond the reported value", tc.n, above)
			}
		}
	}
	// Order must not matter.
	shuffled := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10, 12, 11, 22, 14, 19, 13, 21, 15, 18, 16, 20, 17}
	if v, _ := Tail(shuffled); v != 12 {
		t.Errorf("Tail of a shuffled 1..22 = %v, want 12", v)
	}
}
