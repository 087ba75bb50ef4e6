package predict

import "linkpred/internal/graph"

// The slow, obvious oracle of the local family: enumerate every 2-hop pair,
// intersect the two adjacency lists, fold the metric's per-pair score form.
// The fused kernels, the pruned engine, the sharded sweeps and the fuzz
// target are all compared against it; production code holds
// only the engine they test.

// Predict and ScorePairs run the metric's registry row, so the suites that
// range over fusedMetrics compare the oracle with what callers reach.
func (m *localMetric) Predict(g *graph.Graph, k int, opt Options) []Pair {
	return byName[m.name].Predict(g, k, opt)
}

func (m *localMetric) ScorePairs(g *graph.Graph, pairs []Pair, opt Options) []float64 {
	return byName[m.name].ScorePairs(g, pairs, opt)
}

// predictTwoHop is the full sharded 2-hop Predict path: sweep, merge, sort.
func predictTwoHop(g *graph.Graph, k int, opt Options, visit func(u, v graph.NodeID, top *topK)) []Pair {
	return mergeTopK(k, opt.Seed, twoHopParts(g, k, opt, visit)).Result()
}

// referencePredict is the pre-fusion per-pair intersection path, kept as
// the oracle the fused Predict is property-tested against.
func (m *localMetric) referencePredict(g *graph.Graph, k int, opt Options) []Pair {
	var nb *naiveBayes
	if m.usesNB {
		nb = newNaiveBayes(g, opt)
	}
	return predictTwoHop(g, k, opt, func(u, v graph.NodeID, top *topK) {
		top.Add(u, v, m.score(g, nb, u, v, g.CommonNeighbors(u, v)))
	})
}

// referenceScorePairs is the pre-fusion per-pair batch path, kept as the
// oracle the fused ScorePairs is property-tested against.
func (m *localMetric) referenceScorePairs(g *graph.Graph, pairs []Pair, opt Options) []float64 {
	var nb *naiveBayes
	if m.usesNB {
		nb = newNaiveBayes(g, opt)
	}
	out := make([]float64, len(pairs))
	shardRange(opt, len(pairs), workerCount(opt), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p := pairs[i]
			common := g.CommonNeighbors(p.U, p.V)
			if len(common) == 0 {
				continue
			}
			out[i] = m.score(g, nb, p.U, p.V, common)
		}
	})
	return out
}
