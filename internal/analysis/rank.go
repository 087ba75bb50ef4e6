package analysis

import "sort"

// Spearman returns the Spearman rank correlation of two equal-length
// series (Pearson correlation of their average ranks). Used to compare
// algorithm orderings across experiment instances.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	return Pearson(averageRanks(x), averageRanks(y))
}

// averageRanks converts values into 1-based ranks, with ties sharing the
// mean rank.
func averageRanks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	ranks := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && v[idx[j]] == v[idx[i]] {
			j++
		}
		mean := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			ranks[idx[k]] = mean
		}
		i = j
	}
	return ranks
}
