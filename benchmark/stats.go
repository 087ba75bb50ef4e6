package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile (choosing-metrics §1): with fewer, the percentile is set by a
// handful of outliers and does not repeat from run to run.
const minBeyond = 10

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank q-quantile of xs and how many samples
// lie strictly beyond that rank. An empty input yields (NaN, 0).
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// tailPercentile is quantile with the "at least minBeyond samples beyond"
// rule enforced: a percentile that too few samples support is an error, not
// a number.
func tailPercentile(xs []float64, q float64) (float64, error) {
	v, beyond := quantile(xs, q)
	if beyond < minBeyond {
		return v, fmt.Errorf("p%.0f of %d samples has %d beyond it, need %d", q*100, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// median averages the two middle samples of an even-sized input, as
// Python's statistics.median does.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midmean is the interquartile mean: the mean of the middle half of the
// samples. It ignores outliers as a median does, but where the median falls
// in a gap between two clusters of a bimodal sample — and flips between
// them from run to run — the midmean moves smoothly with the share of each.
func midmean(xs []float64) float64 {
	s := sortedCopy(xs)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile by the exclusive method —
// what Python's statistics.quantiles(xs, n=4) returns, which is what the
// acceptance procedure for this benchmark uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of the three cut points, 1-based
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound in BENCHMARK.json is judged against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
