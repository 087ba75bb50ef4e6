package predict

import (
	"cmp"
	"runtime"
	"slices"

	"linkpred/internal/graph"
	"linkpred/internal/par"
	"linkpred/internal/snapcache"
)

// This file is the shared parallel scoring engine. Every algorithm routes
// its Predict sweep and its ScorePairs batch through the helpers here, which
// shard work across Options.Workers goroutines while guaranteeing output
// bit-identical to a serial run:
//
//   - Predict sweeps give each worker a private stamp array and a private
//     bounded top-k; the per-worker selections are merged through the same
//     splitmix64 tie-hash the serial selector uses, so the merged set is
//     exactly the set a single worker would have kept, independent of worker
//     count, chunk assignment, and merge order.
//   - ScorePairs batches are index-sliced: each worker writes disjoint
//     output positions, computed from read-only per-snapshot state, so
//     output order and values are trivially preserved.

// workerCount resolves Options.Workers: values <= 0 mean one worker per
// available CPU.
func workerCount(opt Options) int {
	if opt.Workers > 0 {
		return opt.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// shardMin is the range size below which goroutine fan-out costs more than
// the sweep itself; smaller ranges run on the calling goroutine.
const shardMin = par.ShardMin

// shardRange fans [0, n) out over workers goroutines with dynamic chunk
// claiming; it wraps par.ShardRangeCtx, which also drives the linalg
// backend so both layers share one chunk-accounting telemetry stream. The
// call's Options carry the cancellation context: a cancelled opt.Ctx stops
// the fan-out within one chunk claim per worker, after which the enclosing
// Predict/ScorePairs returns partial data its caller must discard.
func shardRange(opt Options, n, workers int, body func(worker, lo, hi int)) {
	par.ShardRangeCtx(opt.Ctx, n, workers, par.ShardMin, body)
}

// mergeTopK folds per-worker selections into one selector. Entries carry
// their original tie-hash, so the merged selection equals the serial one
// regardless of how candidates were distributed across parts.
func mergeTopK(k int, seed int64, parts []*topK) *topK {
	var only *topK
	live := 0
	for _, p := range parts {
		if p != nil {
			only = p
			live++
		}
	}
	if live == 1 {
		return only
	}
	merged := newTopK(k, seed)
	for _, p := range parts {
		if p == nil {
			continue
		}
		for i := range p.pairs {
			merged.add(p.pairs[i], p.ties[i])
		}
	}
	return merged
}

// newStamp returns a stamp array initialized to "never visited".
func newStamp(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// twoHopRange enumerates every unconnected pair (u, v) with u < v at
// distance exactly two and u in [lo, hi), calling emit once per pair. The
// caller-owned stamp array keeps the sweep allocation-free across nodes; it
// must have been produced by newStamp and may be reused across ranges as
// long as no two concurrent sweeps share it.
func twoHopRange(g *graph.Graph, lo, hi int, stamp []int32, emit func(u, v graph.NodeID)) {
	for u := lo; u < hi; u++ {
		uid := graph.NodeID(u)
		// Mark direct neighbors so they are excluded.
		for _, w := range g.Neighbors(uid) {
			stamp[w] = int32(u)
		}
		stamp[u] = int32(u)
		for _, w := range g.Neighbors(uid) {
			for _, v := range g.Neighbors(w) {
				if v <= uid || stamp[v] == int32(u) {
					continue
				}
				stamp[v] = int32(u)
				emit(uid, v)
			}
		}
	}
}

// twoHopPairs is the serial full-graph sweep, kept for candidate-set
// enumeration call sites that need a single deterministic emission order.
func twoHopPairs(g *graph.Graph, emit func(u, v graph.NodeID)) {
	n := g.NumNodes()
	twoHopRange(g, 0, n, newStamp(n), emit)
}

// twoHopParts runs the sharded 2-hop candidate sweep over the call's source
// span (Options.SourceRange, full graph when unset): each worker owns a
// stamp array and a bounded top-k, and visit scores one candidate pair into
// the worker's selection. The returned parts merge via mergeTopK.
func twoHopParts(g *graph.Graph, k int, opt Options, visit func(u, v graph.NodeID, top *topK)) []*topK {
	n := g.NumNodes()
	base, end := opt.sourceSpan(n)
	workers := workerCount(opt)
	parts := make([]*topK, workers)
	stamps := make([][]int32, workers)
	shardRange(opt, end-base, workers, func(w, lo, hi int) {
		if parts[w] == nil {
			parts[w] = newTopKRec(k, opt)
			stamps[w] = newStamp(n)
		}
		opt.rec.addNodes(int64(hi - lo))
		top := parts[w]
		twoHopRange(g, base+lo, base+hi, stamps[w], func(u, v graph.NodeID) { visit(u, v, top) })
	})
	return parts
}

// scorePairsFused is the kernel batch path: queries grouped by source via
// sourceSortedIndex share one unrestricted sweep per distinct source within
// a chunk, and each query is answered by an O(1) lookup into the worker's
// accumulators. A chunk boundary splitting a group only costs one extra
// sweep; per-query results are unchanged.
//
// Hub fast path: when the group's source has a cached neighbor bitset
// (csr.View via snapcache) and the group's targets are collectively cheaper
// to probe than the source is to sweep, each query (u, v) walks N(v)
// testing membership in u's bitset instead. Witnesses still arrive in
// ascending ID order — N(v) is sorted — so the accumulated floats are
// bit-identical to the sweep's; the path choice is a deterministic function
// of the graph and the batch, and either path computes the same set, so
// output never depends on which one ran.
func scorePairsFused(g *graph.Graph, pairs []Pair, opt Options, kern sweepKernel) []float64 {
	out := make([]float64, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	idx := sourceSortedIndex(pairs, func(p Pair) graph.NodeID { return p.U })
	n := g.NumNodes()
	view := snapcache.For(g).CSRView()
	avgWedge := int64(1)
	if n > 0 {
		avgWedge += wedgeWork(g) / int64(n)
	}
	workers := par.LimitWorkers(workerCount(opt), int64(len(pairs))*avgWedge, minSweepWork)
	scratch := make([]*sweepScratch, workers)
	shardRange(opt, len(idx), workers, func(wk, lo, hi int) {
		if scratch[wk] == nil {
			scratch[wk] = newSweepScratch(n)
		}
		s := scratch[wk]
		for gi := lo; gi < hi; {
			u := pairs[idx[gi]].U
			ge := gi + 1
			for ge < hi && pairs[idx[ge]].U == u {
				ge++
			}
			if b := view.HubBits(u); b != nil && probeCheaper(g, u, pairs, idx[gi:ge]) {
				for _, i := range idx[gi:ge] {
					p := pairs[i]
					var c int32
					var ws float64
					if kern.witness == nil {
						for _, w := range g.Neighbors(p.V) {
							if b.Has(w) {
								c++
							}
						}
					} else {
						for _, w := range g.Neighbors(p.V) {
							if b.Has(w) {
								c++
								ws += kern.witness(w)
							}
						}
					}
					if c != 0 {
						out[i] = kern.finish(p.U, p.V, c, ws)
					}
				}
				gi = ge
				continue
			}
			s.sweepAll(g, u, kern.witness)
			for _, i := range idx[gi:ge] {
				p := pairs[i]
				o := p.V
				if o == u {
					o = p.U
				}
				if c := s.count[o]; c != 0 {
					out[i] = kern.finish(p.U, p.V, c, s.weight[o])
				}
			}
			gi = ge
		}
	})
	return out
}

// probeCheaper estimates whether answering a source group by per-target
// bitset probes (Σ deg(v) bit tests) beats one shared wedge sweep
// (Σ_{w∈N(u)} deg(w) visits). Both sides are exact integer functions of the
// graph and the group, so the decision is deterministic.
func probeCheaper(g *graph.Graph, u graph.NodeID, pairs []Pair, group []int) bool {
	probe := int64(0)
	for _, i := range group {
		probe += int64(g.Degree(pairs[i].V))
	}
	sweep := int64(0)
	for _, w := range g.Neighbors(u) {
		sweep += int64(g.Degree(w))
		if sweep > probe {
			return true
		}
	}
	return false
}

// sourceSortedIndex returns pair indices sorted by the node that key
// extracts, grouping same-source queries so per-source scratch (BFS
// frontiers, walk distributions, push residuals) is built once per distinct
// source within a chunk. A chunk boundary splitting a group only costs one
// extra rebuild; the per-query results are unchanged.
func sourceSortedIndex(pairs []Pair, key func(Pair) graph.NodeID) []int {
	idx := make([]int, len(pairs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(key(pairs[a]), key(pairs[b])) })
	return idx
}
