// Package stat holds the benchmark's order statistics: the median and
// quartiles every metric is reported with, and the rule that picks the
// tail percentile a latency sample can support.
package stat

import (
	"math"
	"sort"
)

// Summary describes one metric's samples.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Exact is set when every sample had the same value: a count that
	// repeats exactly compares two builds without a noise bar.
	Exact bool `json:"exact"`
}

// Spread is the interquartile range as a share of the median, the
// number the run-to-run noise check compares with a metric's bound.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Summarize returns the median, quartiles and count of xs; the zero
// Summary when xs is empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := sorted(xs)
	q1, med, q3 := quartiles(s)
	return Summary{Median: med, Q1: q1, Q3: q3, N: len(s), Exact: s[0] == s[len(s)-1]}
}

// Median returns the median of xs, 0 when empty.
func Median(xs []float64) float64 { return Summarize(xs).Median }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// "exclusive" method the acceptance check uses, so a spread computed
// here reads the same there.
func quartiles(s []float64) (q1, med, q3 float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// beyond is how many samples must lie above a reported percentile for
// it to be more than the reading of a few outliers.
const beyond = 10

// Tail returns the highest percentile of xs, at most the 99th, that
// has at least ten samples beyond it, and which percentile that is.
// With some twenty samples or fewer that percentile would lie below
// the median, which is no tail: the median stands in (pct 50).
func Tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if n-1-idx >= beyond {
		return s[idx], 99
	}
	idx = n - 1 - beyond
	if 2*(idx+1) <= n {
		_, med, _ := quartiles(s)
		return med, 50
	}
	return s[idx], 100 * float64(idx+1) / float64(n)
}
