package predict

import (
	"sync/atomic"

	"linkpred/internal/graph"
)

// SP is Shortest Path: score(u,v) = -hops(u,v), so closer pairs rank higher.
// As the paper observes (§4.2), its top-k is effectively a random draw over
// all 2-hop pairs; our deterministic tie-break hash reproduces exactly that
// behaviour.
var SP Algorithm = &algo{name: "SP", cost: CostRows, predict: spPredict, score: spScorePairs}

// spBFS fills dist with the hop counts from u out to maxDepth (-1 beyond
// the horizon) and returns the drained queue for reuse.
func spBFS(g *graph.Graph, u graph.NodeID, maxDepth int32, dist []int32, queue []graph.NodeID) []graph.NodeID {
	for i := range dist {
		dist[i] = -1
	}
	dist[u] = 0
	queue = append(queue[:0], u)
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if dist[x] >= maxDepth {
			continue
		}
		for _, y := range g.Neighbors(x) {
			if dist[y] < 0 {
				dist[y] = dist[x] + 1
				queue = append(queue, y)
			}
		}
	}
	return queue
}

func spPredict(g *graph.Graph, k int, opt Options) []Pair {
	// Distance-2 pairs dominate; they are cheap to enumerate exactly.
	var count int64
	parts := twoHopParts(g, k, opt, func(u, v graph.NodeID, top *topK) {
		top.Add(u, v, -2)
		atomic.AddInt64(&count, 1)
	})
	if int(count) >= k {
		return mergeTopK(k, opt.Seed, parts).Result()
	}
	// Not enough 2-hop pairs: per-source truncated BFS out to increasing
	// depths. The BFS re-discovers every distance-2 pair, so the sweep above
	// is discarded rather than merged (merging would insert those pairs
	// twice and could surface duplicates in the result). Under a SourceRange
	// the count — and hence the path taken — is the shard's own: safe,
	// because a shard with ≥ k owned 2-hop pairs proves no deeper pair can
	// enter the global top k, and a shard that falls through scores its
	// distance-2 pairs identically (-2) on the BFS path.
	n := g.NumNodes()
	base, end := opt.sourceSpan(n)
	maxDepth := int32(opt.SPMaxDepth)
	if maxDepth < 3 {
		maxDepth = 3
	}
	workers := workerCount(opt)
	bfsParts := make([]*topK, workers)
	dists := make([][]int32, workers)
	queues := make([][]graph.NodeID, workers)
	shardRange(opt, end-base, workers, func(wk, lo, hi int) {
		if bfsParts[wk] == nil {
			bfsParts[wk] = newTopKRec(k, opt)
			dists[wk] = make([]int32, n)
		}
		opt.rec.addNodes(int64(hi - lo))
		top, dist, queue := bfsParts[wk], dists[wk], queues[wk]
		for u := base + lo; u < base+hi; u++ {
			uid := graph.NodeID(u)
			queue = spBFS(g, uid, maxDepth, dist, queue)
			for v := u + 1; v < n; v++ {
				if d := dist[v]; d >= 2 {
					top.Add(uid, graph.NodeID(v), float64(-d))
				}
			}
		}
		queues[wk] = queue
	})
	return mergeTopK(k, opt.Seed, bfsParts).Result()
}

func spScorePairs(g *graph.Graph, pairs []Pair, opt Options) []float64 {
	maxDepth := int32(opt.SPMaxDepth)
	if maxDepth <= 0 {
		maxDepth = 6
	}
	out := make([]float64, len(pairs))
	// Group queries by source to share one truncated BFS per distinct node
	// within a chunk.
	idx := sourceSortedIndex(pairs, func(p Pair) graph.NodeID { return p.U })
	n := g.NumNodes()
	workers := workerCount(opt)
	dists := make([][]int32, workers)
	queues := make([][]graph.NodeID, workers)
	shardRange(opt, len(idx), workers, func(wk, lo, hi int) {
		if dists[wk] == nil {
			dists[wk] = make([]int32, n)
		}
		dist, queue := dists[wk], queues[wk]
		cur := graph.NodeID(-1)
		first := true
		for _, i := range idx[lo:hi] {
			p := pairs[i]
			if p.U != cur || first {
				cur = p.U
				first = false
				queue = spBFS(g, cur, maxDepth, dist, queue)
			}
			if d := dist[p.V]; d >= 0 {
				out[i] = float64(-d)
			} else {
				out[i] = float64(-(maxDepth + 2)) // beyond horizon
			}
		}
		queues[wk] = queue
	})
	return out
}

// LP is the Local Path index: |paths²(u,v)| + ε |paths³(u,v)|, where path
// counts are walk counts (entries of A² and A³) as in Zhou et al. [45].
// Support is contained within three hops, so per-source sparse propagation
// enumerates every nonzero pair exactly.
var LP Algorithm = propagation(lpFill).row("LP")

// lpFill computes w1 = A e_u, w2 = A² e_u and w3 = A³ e_u, then folds ε·w3
// into w2: the A² support keeps its order and the A³-only targets follow
// it, each holding w2 + ε·w3.
func lpFill(g *graph.Graph, opt Options) sourceFill {
	eps := opt.LPEpsilon
	return func(u graph.NodeID, s *walkScratch) *sparseVec {
		w1, w2, w3 := s.cur, s.next, s.acc
		w1.reset()
		w2.reset()
		w3.reset()
		for _, y := range g.Neighbors(u) {
			w1.add(y, 1)
		}
		propagate(g, w1, w2)
		propagate(g, w2, w3)
		for _, v := range w3.touched {
			w2.add(v, eps*w3.val[v])
		}
		return w2
	}
}
