package predict

import (
	"cmp"
	"slices"
	"sort"

	"linkpred/internal/graph"
	"linkpred/internal/par"
	"linkpred/internal/snapcache"
)

// This file is the pruned candidate-generation engine behind the local
// metric family's Predict. The fused wedge sweep already enumerates only
// 2-hop candidates, but it sweeps *every* source; on power-law graphs the
// long tail of low-degree sources dominates the total wedge count
// (Σ_w deg(w)²) while contributing almost nothing to the top k. The pruned
// engine processes sources in descending order of a per-source score upper
// bound and drops the remaining suffix as soon as the global top-k floor
// provably exceeds it:
//
//   - Per-source bounds. Every local metric admits a cheap sup over all
//     possible candidates of a source u: deg(u) for CN, Σ_{w∈N(u)}
//     max(0, term(w)) for the additive metrics (AA, RA and the naive Bayes
//     family, whose per-witness terms can be negative), and the constant 1
//     for JC (a degree-twin candidate scores 1, so no per-source bound can
//     beat it and JC effectively never prunes; DESIGN.md §10 derives all
//     of these).
//   - Deterministic batches. Sources are processed in bound-descending
//     order (ties by ascending ID) in batches of deterministically doubling
//     size. After each batch the per-worker selections are merged; once the
//     merged heap holds k entries its root is the floor, and the ub-sorted
//     suffix with ub < floor (strictly — a candidate scoring exactly the
//     floor can still win its tie-hash) is truncated in one binary search.
//   - Bit-identical output. A pruned source's candidates all score at most
//     its bound, hence strictly below the floor, hence strictly below every
//     later floor (the floor is monotone), so the bounded heaps would have
//     rejected each of them on the score comparison alone. The surviving
//     sweep computes every candidate's score with the same per-source
//     accumulation order as an exhaustive sweep, so Predict output is
//     bit-identical to the per-pair test oracle (oracle_test.go). Float
//     safety of the bound itself: witness terms are folded in the same
//     ascending order as the score, and appending non-negative terms to an
//     IEEE fold is monotone, so ub ≥ score holds for the floats too.
//
// Batch boundaries, merge points, and floors depend only on (graph, k,
// seed, bounds), never on worker count or timing, so prune decisions — and
// the candidates_generated / sources_pruned telemetry — are worker-
// invariant, preserving the engine's determinism contract.

// minSweepWork is the estimated per-worker wedge-visit count below which a
// local sweep sheds workers: fan-out overhead (goroutine spawn, chunk
// claims, per-worker scratch, heap merges) exceeds the work itself under
// it. A wedge visit is a few nanoseconds, so the threshold corresponds to
// roughly 100µs of per-worker work — an order of magnitude above the
// fan-out cost, which keeps unit-test-scale sweeps serial without shedding
// workers on anything a human would benchmark.
const minSweepWork = 1 << 15

// pruneBatchMin is the smallest source batch the pruned engine processes
// between floor refreshes. Graphs with fewer sources complete in a single
// batch and can never prune: small inputs are swept exhaustively.
const pruneBatchMin = 512

// wedgeWork returns Σ_u deg(u)², the total wedge-visit count of a full
// local sweep over g — the work estimate behind the worker clamp. Cached
// per snapshot.
func wedgeWork(g *graph.Graph) int64 {
	v, _ := snapcache.For(g).Artifact("predict/wedgework", func() (any, error) {
		var t int64
		for u := 0; u < g.NumNodes(); u++ {
			d := int64(g.Degree(graph.NodeID(u)))
			t += d * d
		}
		return t, nil
	})
	return v.(int64)
}

// boundKind selects how a local metric's per-source upper bound is formed.
type boundKind uint8

const (
	// boundAdditive: ub(u) = Σ_{w∈N(u)} max(0, boundTerm(w)). Sound for
	// metrics whose score is a sum of per-witness terms over a subset of
	// N(u): CN (term 1), AA, RA, and the naive Bayes family.
	boundAdditive boundKind = iota
	// boundUnit: ub(u) = 1 for deg(u) > 0. JC is bounded by 1 and a
	// degree-twin candidate attains it, so no tighter per-source bound
	// exists.
	boundUnit
)

// bounds computes the per-source upper-bound array for m on g over the
// source window [base, end); entries outside the window stay zero and are
// never read. The result is a deterministic function of the graph, the
// metric, and the window, independent of worker count (entries are
// computed independently).
func (m *localMetric) bounds(g *graph.Graph, nb *naiveBayes, opt Options, workers, base, end int) []float64 {
	n := g.NumNodes()
	ub := make([]float64, n)
	switch m.boundKind {
	case boundUnit:
		for u := base; u < end; u++ {
			if g.Degree(graph.NodeID(u)) > 0 {
				ub[u] = 1
			}
		}
	default:
		ld := logDegTable(g)
		shardRange(opt, end-base, workers, func(_, lo, hi int) {
			for u := base + lo; u < base+hi; u++ {
				s := 0.0
				for _, w := range g.Neighbors(graph.NodeID(u)) {
					if t := m.boundTerm(g, ld, nb, w); t > 0 {
						s += t
					}
				}
				ub[u] = s
			}
		})
	}
	return ub
}

// predictPruned is the pruned Predict engine for one local metric: bound,
// order, sweep in doubling batches, truncate below the merged floor. With a
// SourceRange set, only the owned sources are ordered and swept; the floor
// then proves bounds against the shard's own top k, which is exact for the
// shard's ownership universe (any pruned source's candidates score below k
// owned candidates, so none of them can reach the merged global top k
// either — shard.go carries the full argument).
func predictPruned(g *graph.Graph, k int, opt Options, m *localMetric, nb *naiveBayes, kern sweepKernel) []Pair {
	n := g.NumNodes()
	if k <= 0 || n == 0 {
		return newTopK(k, opt.Seed).Result()
	}
	base, end := opt.sourceSpan(n)
	workers := par.LimitWorkers(workerCount(opt), wedgeWork(g), minSweepWork)
	ub := m.bounds(g, nb, opt, workers, base, end)
	order := make([]graph.NodeID, end-base)
	for i := range order {
		order[i] = graph.NodeID(base + i)
	}
	// Stable + ascending initial order keeps equal-bound sources in
	// ascending ID order, making the processing schedule canonical.
	slices.SortStableFunc(order, func(a, b graph.NodeID) int {
		return cmp.Compare(ub[b], ub[a])
	})
	parts := make([]*topK, workers)
	scratch := make([]*sweepScratch, workers)
	pruned := int64(0)
	batch := 2 * k
	if batch < pruneBatchMin {
		batch = pruneBatchMin
	}
	for pos := 0; pos < len(order); {
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			break
		}
		hi := pos + batch
		if hi > len(order) {
			hi = len(order)
		}
		base := pos
		shardRange(opt, hi-pos, workers, func(w, lo, bhi int) {
			if parts[w] == nil {
				parts[w] = newTopKRec(k, opt)
				scratch[w] = newSweepScratch(n)
			}
			opt.rec.addNodes(int64(bhi - lo))
			top, s := parts[w], scratch[w]
			for i := lo; i < bhi; i++ {
				u := order[base+i]
				s.sweepCandidates(g, u, kern.witness)
				for _, v := range s.cands {
					top.Add(u, v, kern.finish(u, v, s.count[v], s.weight[v]))
				}
			}
		})
		pos = hi
		batch *= 2
		if pos >= len(order) {
			break
		}
		// mergeTopK may alias the single live part; the floor read below is
		// still sound — nothing mutates parts between here and the next
		// batch, and Result is only called after the loop.
		merged := mergeTopK(k, opt.Seed, parts)
		if len(merged.pairs) < k {
			continue
		}
		floor := merged.pairs[0].Score
		cut := pos + sort.Search(len(order)-pos, func(i int) bool {
			return ub[order[pos+i]] < floor
		})
		if cut < len(order) {
			pruned += int64(len(order) - cut)
			order = order[:cut]
		}
	}
	if r := opt.rec; r != nil {
		// Every generated candidate is offered to its worker's selector, so
		// the selectors' tallies are the candidate count; like the pruned
		// source count it is worker-invariant (the batch schedule and
		// floors depend only on the graph, k and the seed).
		for _, p := range parts {
			if p != nil {
				r.cands += p.offered
			}
		}
		r.prune = pruned
	}
	return mergeTopK(k, opt.Seed, parts).Result()
}
