package predict

import (
	"math/bits"

	"linkpred/internal/graph"
)

// This file is the source-sharding layer of the prediction engine: the
// SourceRange restriction that lets N processes each sweep a contiguous
// slice of the source-node space, and the exported merge primitives that
// fold their partial top-k lists back into the exact single-process result.
//
// Ownership rule. Every candidate pair (u, v) is owned by exactly one
// shard: the one whose range contains the canonical lower endpoint
// min(u, v). The per-source sweeps (local family, LP, SP, LRW, KatzExact,
// the 2-hop phase of the global candidate set) emit candidates as (u, v)
// with v > u from source u, so restricting their source loop to [Lo, Hi)
// implements the rule directly. Sweeps whose traversal cannot be
// range-restricted — the PA frontier, PPR's two-sided push accumulation,
// the global set's block and random phases — run their full traversal and
// filter emission by the same rule, so the union of the shards' candidate
// universes is a disjoint partition of the unrestricted universe at every
// shard count.
//
// Merge exactness. Each shard's Predict returns the exact top k of its
// ownership universe (threshold pruning, the PA early break, and the SP
// 2-hop shortcut all reason only about that universe). Any pair in the
// global top k has at most k-1 pairs ranking above it globally, hence at
// most k-1 above it within its owning shard, so it appears in that shard's
// local top k — MergeTopK over the shards therefore reproduces the
// unrestricted top k. Scores are computed by the same per-source
// accumulation code either way and the tie-hash depends only on
// (seed, pair), so the reproduction is bit-identical, at any shard count
// and any per-shard Options.Workers.

// SourceRange restricts a Predict call to the candidate pairs owned by the
// half-open source-node interval [Lo, Hi). See Options.SourceRange.
type SourceRange struct {
	Lo, Hi int
}

// CostModel selects the per-source work estimate shard boundaries are
// balanced over. One wedge-weight model fits the unbounded local sweeps but
// misprices everything else: the naive Bayes kernels prune hub sources
// almost immediately (their per-witness terms go negative exactly where
// wedge counts explode), and the latent families do per-source work
// proportional to a row, not a wedge fan-out. Balancing each family by its
// own cost curve is what lifts the bounded kernels past the ~1.8× plateau
// the wedge split left them at on 4 shards.
type CostModel uint8

const (
	// CostWedge weighs source u by 1 + Σ_{v∈N(u)} deg(v), the wedge-visit
	// count of the unbounded local sweep (CN, JC, AA, RA).
	CostWedge CostModel = iota
	// CostCappedWedge weighs source u by 1 + Σ_{v∈N(u)} min(deg(v),
	// WedgeCap). The naive Bayes family's additive score bounds collapse on
	// hub sources (hub witnesses carry negative log role-ratios), so top-k
	// pruning truncates their hub sweeps after a bounded amount of work —
	// the uncapped model bills shard 0 for wedges the pruned engine never
	// visits and starves the tail shards.
	CostCappedWedge
	// CostRows weighs source u by 1 + deg(u): the per-source cost of the
	// row-driven families (matvec-backed latents, walks, paths), which
	// touch each adjacency row O(1) times per iteration rather than
	// fanning out through neighbor degrees.
	CostRows
)

// WedgeCap is the per-neighbor degree cap of CostCappedWedge. The value
// tracks the effective hub truncation of the pruned naive Bayes sweeps on
// power-law growth traces; it is a balance heuristic only — boundary choice
// never affects output, just shard wall-clock skew.
const WedgeCap = 64

// CostModelFor maps an algorithm name to the cost model that best predicts
// its per-source sweep cost: the registry row's. Unknown names get
// CostWedge, the conservative default.
func CostModelFor(alg string) CostModel {
	if a := byName[alg]; a != nil {
		return a.cost
	}
	return CostWedge
}

// SourceCosts returns the per-source cost array of model over g, plus its
// total. Costs are exact integer functions of the degree sequence (every
// node contributes at least 1, so empty ranges only appear when shards >
// n).
//
// The wedge models additionally apply a pruning-survival weight: the
// top-k engine sweeps sources in descending upper-bound order and
// truncates the suffix once the floor passes it, so a source's expected
// work is its wedge count times the chance it is swept at all. Growth
// traces assign low IDs to old (hub) nodes, whose bounds stay above any
// floor, while high-ID tail sources are almost always truncated —
// profiled in 16 equal-wedge blocks on renren-100k, the effective cost
// per wedge decays near-linearly from ~1.7× the mean at the head to
// ~0.4× at the tail. The weight m(F) = 7/4 − 5/4·F (F = wedge-prefix
// fraction) models that decay; without it, raw wedge balance hands the
// hub shard ~1.6× the mean wall clock (2.3× at 4 shards where ~3.2× is
// reachable). Still a pure integer function of the degree sequence, so
// replicas agree; boundary choice never affects output, only skew.
func SourceCosts(g *graph.Graph, model CostModel) (costs []uint64, total uint64) {
	n := g.NumNodes()
	costs = make([]uint64, n)
	for u := 0; u < n; u++ {
		w := uint64(1)
		switch model {
		case CostRows:
			w += uint64(g.Degree(graph.NodeID(u)))
		case CostCappedWedge:
			for _, v := range g.Neighbors(graph.NodeID(u)) {
				if d := g.Degree(v); d < WedgeCap {
					w += uint64(d)
				} else {
					w += WedgeCap
				}
			}
		default:
			for _, v := range g.Neighbors(graph.NodeID(u)) {
				w += uint64(g.Degree(v))
			}
		}
		costs[u] = w
		total += w
	}
	if model == CostRows || total == 0 {
		return costs, total
	}
	// costs[u] ← costs[u] · (7·total − 5·prefix) / (4·total), in 128-bit
	// intermediates so degenerate dense graphs cannot overflow.
	var prefix, rescaled uint64
	for u := range costs {
		w := costs[u]
		hi, lo := bits.Mul64(w, 7*total-5*prefix)
		q, _ := bits.Div64(hi, lo, 4*total)
		if q == 0 {
			q = 1
		}
		costs[u] = q
		prefix += w
		rescaled += q
	}
	return costs, rescaled
}

// WeightedSourceRangesFor partitions [0, n) into shards contiguous source
// ranges of approximately equal cost under model, by prefix-sum against
// evenly spaced targets. Growth traces assign low IDs to old nodes, and old
// nodes are the hubs, so equal-count ranges pile the expensive sources —
// and, under the min(u, v) ownership rule, nearly all hub–hub candidates —
// onto shard 0; measured on renren-100k, shard 0 of 4 carries ~65% of the
// wedge sweep. The ranges are contiguous, disjoint, and cover the whole
// span, so the ownership rule and merge-exactness argument above apply at
// any boundary placement.
//
// The split is a pure function of the snapshot's degree sequence and the
// model: replicas holding identical snapshots compute identical boundaries
// with no coordination, which is what lets each cluster worker derive its
// own range from (shard, shards, algorithm) alone.
func WeightedSourceRangesFor(g *graph.Graph, shards int, model CostModel) []SourceRange {
	if shards <= 0 {
		panic("predict: invalid shard count")
	}
	end := rangeEnds(g, shards, model)
	ranges := make([]SourceRange, shards)
	lo := 0
	for s := range ranges {
		hi := end(s)
		ranges[s] = SourceRange{Lo: lo, Hi: hi}
		lo = hi
	}
	return ranges
}

// WeightedSourceRangeFor is WeightedSourceRangesFor(g, shards, model)[shard]
// without the other shards−1 ranges: a request that names its own shard
// count costs the O(n) cost pass, whatever count it names.
func WeightedSourceRangeFor(g *graph.Graph, shard, shards int, model CostModel) SourceRange {
	if shard < 0 || shard >= shards {
		panic("predict: invalid shard index")
	}
	end := rangeEnds(g, shards, model)
	lo := 0
	if shard > 0 {
		lo = end(shard - 1)
	}
	return SourceRange{Lo: lo, Hi: end(shard)}
}

// rangeEnds returns end(s), the exclusive upper end of range s of the
// shards-way split: the longest prefix whose cost stays within
// total·(s+1)/shards (128-bit, so a hostile shard count cannot wrap the
// target). The scan resumes where the previous call stopped, so s must not
// decrease between calls.
func rangeEnds(g *graph.Graph, shards int, model CostModel) func(s int) int {
	costs, total := SourceCosts(g, model)
	hi, acc := 0, uint64(0)
	return func(s int) int {
		if s == shards-1 {
			return len(costs)
		}
		th, tl := bits.Mul64(total, uint64(s+1))
		target, _ := bits.Div64(th, tl, uint64(shards))
		for hi < len(costs) && acc+costs[hi] <= target {
			acc += costs[hi]
			hi++
		}
		return hi
	}
}

// sourceSpan resolves the call's source restriction against an n-node
// snapshot: nil means the full [0, n), anything else is clamped into it.
func (o *Options) sourceSpan(n int) (lo, hi int) {
	if o.SourceRange == nil {
		return 0, n
	}
	lo, hi = o.SourceRange.Lo, o.SourceRange.Hi
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// ownsPair reports whether the call's restriction owns candidate (u, v):
// the canonical lower endpoint falls inside the range. With no restriction
// every pair is owned. This is the emission filter for sweeps that cannot
// restrict their traversal (PA, PPR, the global block/random phases).
func (o *Options) ownsPair(u, v graph.NodeID) bool {
	if o.SourceRange == nil {
		return true
	}
	m := int(minID(u, v))
	return m >= o.SourceRange.Lo && m < o.SourceRange.Hi
}

// TieHash is the deterministic tie-break hash behind every ranked
// selection: splitmix64 over the seed and the canonical pair key. Exported
// so out-of-process mergers (the cluster router) can reason about — and
// tests can verify — the exact order Predict uses for equal scores.
func TieHash(seed int64, u, v graph.NodeID) uint64 {
	return tieHash(seed, u, v)
}

// MergeTopK folds N independently selected top-k lists into the top k of
// their union, using the same score-then-tie-hash order Predict uses. If
// each part is a shard's Predict output produced with the same seed and k
// over disjoint ownership ranges, the merge is bit-identical to the
// unrestricted single-process Predict — the tie-hash depends only on
// (seed, pair), so re-offering a pair here reproduces the hash it carried
// inside the shard. Part order never matters; parts may be nil or short.
func MergeTopK(parts [][]Pair, k int, seed int64) []Pair {
	t := newTopK(k, seed)
	for _, part := range parts {
		for _, p := range part {
			t.add(Pair{U: minID(p.U, p.V), V: maxID(p.U, p.V), Score: p.Score}, tieHash(seed, p.U, p.V))
		}
	}
	return t.Result()
}
