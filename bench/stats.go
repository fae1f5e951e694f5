package bench

import (
	"math"
	"sort"
)

// rank is the nearest-rank position (1-based) of the p-th percentile among
// n samples, in integer arithmetic: p/100*n in floating point lands a hair
// above an integer often enough to shift the rank by one.
func rank(n int, p float64) int {
	per100k := int64(math.Round(p * 1000))
	r := int((int64(n)*per100k + 99_999) / 100_000)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100, to
// three decimals) of sorted, which must be ascending and non-empty.
func Percentile(sorted []int64, p float64) int64 {
	return sorted[rank(len(sorted), p)-1]
}

// percentileLadder lists the percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// HighestPercentile returns the highest percentile of the ladder that still
// has at least ten of n samples beyond it, or 0 when even the median has
// fewer than ten.
func HighestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n > 0 && n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// Median returns the median of v (0 for an empty slice).
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method), so
// spreads printed here match the ones the driver derives from its own runs.
// It needs at least two values.
func Quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// Spread is the distance between the quartiles of v as a share of its
// median: the run-to-run noise a bound has to stay above.
func Spread(v []float64) float64 {
	med := Median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	q1, q3 := Quartiles(v)
	return math.Abs(q3-q1) / math.Abs(med)
}
