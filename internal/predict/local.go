package predict

import (
	"math"

	"linkpred/internal/graph"
	"linkpred/internal/snapcache"
)

// localMetric is the family of neighborhood similarity metrics: CN, JC, AA,
// RA and their Local Naive Bayes variants BCN, BAA, BRA (Table 3). All of
// them are supported only on pairs sharing at least one common neighbor, so
// Predict enumerates exactly the unconnected 2-hop pairs.
//
// Each metric carries two formulations: score is the per-pair fold over the
// explicit common-neighbor list (the reference the property tests pin the
// kernels against), while (witness, fuse) express the same metric in the
// accumulate-then-finish form the fused sweep kernels execute. Both fold
// witnesses in ascending NodeID order, so their float results are
// bit-identical.
type localMetric struct {
	name string
	// score computes the metric given the common neighbor list; nb is nil
	// unless the metric is a naive Bayes variant.
	score func(g *graph.Graph, nb *naiveBayes, u, v graph.NodeID, common []graph.NodeID) float64
	// usesNB marks the BCN/BAA/BRA family, which needs triangle statistics.
	usesNB bool
	// witness is the per-common-neighbor weight accumulated by the fused
	// sweep; nil for count-only metrics. ld is the snapshot's shared
	// nonNegLog-degree table (snapcache), so log-weighted witnesses cost a
	// load instead of a math.Log per wedge.
	witness func(g *graph.Graph, ld []float64, nb *naiveBayes, w graph.NodeID) float64
	// fuse finishes one candidate from the accumulated common-neighbor
	// count and witness-weight sum.
	fuse func(g *graph.Graph, nb *naiveBayes, u, v graph.NodeID, count int32, wsum float64) float64
	// boundKind selects the per-source score upper bound driving top-k
	// threshold pruning (prune.go); boundTerm supplies the per-witness term
	// for boundAdditive metrics and is ignored otherwise.
	boundKind boundKind
	boundTerm func(g *graph.Graph, ld []float64, nb *naiveBayes, w graph.NodeID) float64
}

// kernel binds the metric's accumulate/finish forms to one snapshot's
// read-only state (the graph and, for the B* family, the naive Bayes
// statistics); the returned closures are shared by all workers of a call.
func (m *localMetric) kernel(g *graph.Graph, nb *naiveBayes) sweepKernel {
	k := sweepKernel{finish: func(u, v graph.NodeID, count int32, wsum float64) float64 {
		return m.fuse(g, nb, u, v, count, wsum)
	}}
	if m.witness != nil {
		ld := logDegTable(g)
		k.witness = func(w graph.NodeID) float64 { return m.witness(g, ld, nb, w) }
	}
	return k
}

// row is the metric's registry row. Its facts follow from the metric's
// shape: the naive Bayes hub bounds collapse under pruning
// (CostCappedWedge), and only the witness-weighted kernels read the
// log-degree table.
func (m *localMetric) row() *algo {
	a := &algo{name: m.name, cost: CostWedge, predict: m.predict, score: m.scorePairs}
	if m.usesNB {
		a.cost = CostCappedWedge
	}
	if m.witness != nil {
		a.warm = func(g *graph.Graph, _ Options) { logDegTable(g) }
	}
	return a
}

func (m *localMetric) predict(g *graph.Graph, k int, opt Options) []Pair {
	nb := m.stats(g, opt)
	return predictPruned(g, k, opt, m, nb, m.kernel(g, nb))
}

func (m *localMetric) scorePairs(g *graph.Graph, pairs []Pair, opt Options) []float64 {
	return scorePairsFused(g, pairs, opt, m.kernel(g, m.stats(g, opt)))
}

// stats returns the snapshot's naive Bayes statistics for the B* family
// (nil for the rest), built at most once per snapshot and shared read-only
// across workers and calls via snapcache. The statistics are integer-exact
// and path-independent (newNaiveBayes), so sharing is safe at any worker
// count; the build strips the caller's context so a cancelled request can
// never poison the cache — the same discipline as the latent factor
// builds. This matters most under sharding: the prepass costs the full
// graph's triangle census no matter how narrow the shard's SourceRange is,
// and uncached it was the serial term pinning BCN/BAA/BRA to ~1.8× at 4
// shards.
func (m *localMetric) stats(g *graph.Graph, opt Options) *naiveBayes {
	if !m.usesNB {
		return nil
	}
	v, _ := snapcache.For(g).Artifact("predict/naivebayes", func() (any, error) {
		return newNaiveBayes(g, Options{Workers: opt.Workers}), nil
	})
	return v.(*naiveBayes)
}

// naiveBayes holds the per-snapshot statistics of the Local Naive Bayes
// model (Liu et al. [26]): s = |V|(|V|-1)/(2|E|) - 1 and per-node role
// ratios R_w = (N△w + 1)/(N∧w + 1), where N△w counts triangles through w
// and N∧w counts open 2-paths centered at w.
type naiveBayes struct {
	logS float64
	logR []float64
}

func newNaiveBayes(g *graph.Graph, opt Options) *naiveBayes {
	n := g.NumNodes()
	workers := workerCount(opt)
	// The triangle count is sharded by edge source; each worker accumulates
	// into a private array and the integer sums merge exactly, so the
	// statistics are independent of worker count. When one endpoint of an
	// edge is a hub (has a cached neighbor bitset), the intersection walks
	// the shorter adjacency list probing the hub's bitset — min(du,dv) bit
	// tests instead of a du+dv merge — which is where hub-hub edges, the
	// most expensive triangles in a power-law graph, collapse. Either path
	// finds the identical common-neighbor set; only integers accumulate, so
	// the statistics are exact and path-independent.
	view := snapcache.For(g).CSRView()
	partTri := make([][]int64, workers)
	shardRange(opt, n, workers, func(wk, lo, hi int) {
		tri := partTri[wk]
		if tri == nil {
			tri = make([]int64, n)
			partTri[wk] = tri
		}
		for u := lo; u < hi; u++ {
			uid := graph.NodeID(u)
			a := g.Neighbors(uid)
			for _, v := range a {
				if v <= uid {
					continue
				}
				b := g.Neighbors(v)
				short, other := a, v
				if len(b) < len(a) {
					short, other = b, uid
				}
				if hb := view.HubBits(other); hb != nil {
					for _, w := range short {
						if hb.Has(w) {
							tri[uid]++
							tri[v]++
							tri[w]++
						}
					}
					continue
				}
				// Walk the sorted intersection in place: materializing it
				// per edge would make the statistics pass the only
				// per-element allocator left on the local-metric path.
				i, j := 0, 0
				for i < len(a) && j < len(b) {
					switch {
					case a[i] < b[j]:
						i++
					case a[i] > b[j]:
						j++
					default:
						tri[uid]++
						tri[v]++
						tri[a[i]]++
						i++
						j++
					}
				}
			}
		}
	})
	tri3 := make([]int64, n) // 3x triangle count per node
	for _, part := range partTri {
		if part == nil {
			continue
		}
		for i, v := range part {
			tri3[i] += v
		}
	}
	nb := &naiveBayes{logR: make([]float64, n)}
	nodes := float64(n)
	edges := float64(g.NumEdges())
	if edges > 0 {
		s := nodes*(nodes-1)/(2*edges) - 1
		if s > 0 {
			nb.logS = math.Log(s)
		}
	}
	for w := 0; w < n; w++ {
		deg := int64(g.Degree(graph.NodeID(w)))
		triangles := tri3[w] / 3
		open := deg*(deg-1)/2 - triangles
		if open < 0 {
			open = 0
		}
		nb.logR[w] = math.Log(float64(triangles+1) / float64(open+1))
	}
	return nb
}

// The Table 3 formulations.

func scoreCN(_ *graph.Graph, _ *naiveBayes, _, _ graph.NodeID, common []graph.NodeID) float64 {
	return float64(len(common))
}

func scoreJC(g *graph.Graph, _ *naiveBayes, u, v graph.NodeID, common []graph.NodeID) float64 {
	union := g.Degree(u) + g.Degree(v) - len(common)
	if union == 0 {
		return 0
	}
	return float64(len(common)) / float64(union)
}

func scoreAA(g *graph.Graph, _ *naiveBayes, _, _ graph.NodeID, common []graph.NodeID) float64 {
	s := 0.0
	for _, w := range common {
		s += 1 / nonNegLog(float64(g.Degree(w)))
	}
	return s
}

func scoreRA(g *graph.Graph, _ *naiveBayes, _, _ graph.NodeID, common []graph.NodeID) float64 {
	s := 0.0
	for _, w := range common {
		s += 1 / float64(g.Degree(w))
	}
	return s
}

func scoreBCN(_ *graph.Graph, nb *naiveBayes, _, _ graph.NodeID, common []graph.NodeID) float64 {
	// Fold the role ratios first, then add the count term once — the same
	// association the fused kernel uses, so both paths produce bit-identical
	// floats.
	s := 0.0
	for _, w := range common {
		s += nb.logR[w]
	}
	return float64(len(common))*nb.logS + s
}

func scoreBAA(g *graph.Graph, nb *naiveBayes, _, _ graph.NodeID, common []graph.NodeID) float64 {
	s := 0.0
	for _, w := range common {
		s += (nb.logS + nb.logR[w]) / nonNegLog(float64(g.Degree(w)))
	}
	return s
}

func scoreBRA(g *graph.Graph, nb *naiveBayes, _, _ graph.NodeID, common []graph.NodeID) float64 {
	s := 0.0
	for _, w := range common {
		s += (nb.logS + nb.logR[w]) / float64(g.Degree(w))
	}
	return s
}

// The same metrics in accumulate-then-finish form for the fused kernels:
// witnesses produce the per-common-neighbor term, fuses finish a candidate.

// The log-weighted witnesses read the cached table (ld[w] is exactly
// nonNegLog(deg(w)), so the division below reproduces the reference float
// bit for bit); the rest ignore it.

func witAA(_ *graph.Graph, ld []float64, _ *naiveBayes, w graph.NodeID) float64 {
	return 1 / ld[w]
}

func witRA(g *graph.Graph, _ []float64, _ *naiveBayes, w graph.NodeID) float64 {
	return 1 / float64(g.Degree(w))
}

func witBCN(_ *graph.Graph, _ []float64, nb *naiveBayes, w graph.NodeID) float64 {
	return nb.logR[w]
}

func witBAA(_ *graph.Graph, ld []float64, nb *naiveBayes, w graph.NodeID) float64 {
	return (nb.logS + nb.logR[w]) / ld[w]
}

func witBRA(g *graph.Graph, _ []float64, nb *naiveBayes, w graph.NodeID) float64 {
	return (nb.logS + nb.logR[w]) / float64(g.Degree(w))
}

func fuseCN(_ *graph.Graph, _ *naiveBayes, _, _ graph.NodeID, count int32, _ float64) float64 {
	return float64(count)
}

func fuseJC(g *graph.Graph, _ *naiveBayes, u, v graph.NodeID, count int32, _ float64) float64 {
	union := g.Degree(u) + g.Degree(v) - int(count)
	if union == 0 {
		return 0
	}
	return float64(count) / float64(union)
}

// fuseWeight finishes the metrics whose value is exactly the accumulated
// witness sum (AA, RA, BAA, BRA).
func fuseWeight(_ *graph.Graph, _ *naiveBayes, _, _ graph.NodeID, _ int32, wsum float64) float64 {
	return wsum
}

func fuseBCN(_ *graph.Graph, nb *naiveBayes, _, _ graph.NodeID, count int32, wsum float64) float64 {
	return float64(count)*nb.logS + wsum
}

// Per-witness bound terms for the additive score upper bounds (prune.go).
// AA, RA, BAA and BRA bound by their witness functions directly; CN's term
// is the unit count and BCN's folds the count term into each witness
// (score = Σ_{w∈common} (logS + logR[w])), which its witness alone omits.

func termOne(_ *graph.Graph, _ []float64, _ *naiveBayes, _ graph.NodeID) float64 {
	return 1
}

func termBCN(_ *graph.Graph, _ []float64, nb *naiveBayes, w graph.NodeID) float64 {
	return nb.logS + nb.logR[w]
}

// The local metrics of Table 3 and the rows that export them.
var (
	cn  = &localMetric{name: "CN", score: scoreCN, fuse: fuseCN, boundTerm: termOne}
	jc  = &localMetric{name: "JC", score: scoreJC, fuse: fuseJC, boundKind: boundUnit}
	aa  = &localMetric{name: "AA", score: scoreAA, witness: witAA, fuse: fuseWeight, boundTerm: witAA}
	ra  = &localMetric{name: "RA", score: scoreRA, witness: witRA, fuse: fuseWeight, boundTerm: witRA}
	bcn = &localMetric{name: "BCN", score: scoreBCN, usesNB: true, witness: witBCN, fuse: fuseBCN, boundTerm: termBCN}
	baa = &localMetric{name: "BAA", score: scoreBAA, usesNB: true, witness: witBAA, fuse: fuseWeight, boundTerm: witBAA}
	bra = &localMetric{name: "BRA", score: scoreBRA, usesNB: true, witness: witBRA, fuse: fuseWeight, boundTerm: witBRA}
)

// CN is Common Neighbors [Newman 2001].
var CN Algorithm = cn.row()

// JC is Jaccard's Coefficient.
var JC Algorithm = jc.row()

// AA is the Adamic/Adar index.
var AA Algorithm = aa.row()

// RA is the Resource Allocation index [Zhou et al. 2009].
var RA Algorithm = ra.row()

// BCN is Local Naive Bayes Common Neighbors [Liu et al. 2011].
var BCN Algorithm = bcn.row()

// BAA is Local Naive Bayes Adamic/Adar.
var BAA Algorithm = baa.row()

// BRA is Local Naive Bayes Resource Allocation.
var BRA Algorithm = bra.row()
