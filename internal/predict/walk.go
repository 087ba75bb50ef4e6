package predict

import (
	"cmp"
	"slices"

	"linkpred/internal/graph"
)

// LRW is the Local Random Walk index [Liu & Lü 2010]:
//
//	score(u,v) = deg(u)/(2|E|) π_uv(m) + deg(v)/(2|E|) π_vu(m)
//
// where π_uv(m) is the probability of an m-step random walk from u ending
// at v. Because the walk is reversible with respect to the degree
// distribution, deg(u) π_uv(m) = deg(v) π_vu(m) exactly, so the score equals
// deg(u) π_uv(m)/|E| and one propagation direction suffices.
var LRW Algorithm = propagation(lrwFill).row("LRW")

func steps(opt Options) int {
	if opt.LRWSteps <= 0 {
		return 3
	}
	return opt.LRWSteps
}

// lrwFill is LRW's fill step: the walk distribution of u, scaled in place
// to deg(u)·π/|E|.
func lrwFill(g *graph.Graph, opt Options) sourceFill {
	edges := float64(g.NumEdges())
	if edges == 0 {
		return nil
	}
	m := steps(opt)
	return func(u graph.NodeID, s *walkScratch) *sparseVec {
		vec := lrwDistribution(g, u, m, s)
		du := float64(g.Degree(u))
		for _, v := range vec.touched {
			vec.val[v] = du * vec.val[v] / edges
		}
		return vec
	}
}

// lrwDistribution fills a scratch vector with π_u·(m) and returns it.
func lrwDistribution(g *graph.Graph, u graph.NodeID, m int, s *walkScratch) *sparseVec {
	cur, next := s.cur, s.next
	cur.reset()
	cur.add(u, 1)
	for step := 0; step < m; step++ {
		next.reset()
		propagateWalk(g, cur, next)
		cur, next = next, cur
	}
	s.cur, s.next = cur, next
	return cur
}

// PPR is Personalized PageRank: score(u,v) = π_uv + π_vu with
// restart probability α, estimated with the Andersen-Chung-Lang forward-push
// local approximation. Predict accumulates π contributions from every
// source's push into a global pair map, keeping the strongest
// PPRPerSource targets per source to bound memory (documented deviation:
// targets below a source's top block cannot enter the global top-k at the
// k values the paper's methodology uses). Under a SourceRange the push
// sweep still covers every source — score(u,v) sums contributions from
// both endpoints' pushes, so no contiguous source slice sees a pair's full
// score — and only the accumulation is filtered by pair ownership:
// sharding PPR partitions accumulator memory and selection work across
// shards, not push work (DESIGN.md §12 records the limitation).
var PPR Algorithm = &algo{name: "PPR", cost: CostRows, predict: pprPredict, score: pprScorePairs}

// pprPerSource bounds retained targets per push source in Predict.
const pprPerSource = 256

// pprScratch is one worker's forward-push state. inQueue marks the nodes
// in the queue; a mark is cleared when its node is popped, so the slice is
// all-false between pushes. Since a node is queued at most once at a time,
// queue is a FIFO ring of n slots that never grows.
type pprScratch struct {
	p, r    *sparseVec
	queue   []graph.NodeID
	inQueue []bool
}

func newPPRScratch(n int) *pprScratch {
	return &pprScratch{p: newSparseVec(n), r: newSparseVec(n), queue: make([]graph.NodeID, n), inQueue: make([]bool, n)}
}

// pprPush runs forward push from u, leaving the estimate in s.p. A
// non-positive eps would make the push loop until float underflow, so it
// falls back to the default threshold.
func pprPush(g *graph.Graph, u graph.NodeID, alpha, eps float64, s *pprScratch) {
	if eps <= 0 {
		eps = 1e-5
	}
	p, r, inQueue := s.p, s.r, s.inQueue
	p.reset()
	r.reset()
	r.add(u, 1)
	q := s.queue
	q[0] = u
	inQueue[u] = true
	for head, size := 0, 1; size > 0; size-- {
		x := q[head]
		if head++; head == len(q) {
			head = 0
		}
		inQueue[x] = false
		rx := r.val[x]
		d := g.Degree(x)
		if d == 0 {
			// Dangling mass restarts at the source.
			p.add(x, rx)
			r.val[x] = 0
			continue
		}
		if rx < eps*float64(d) {
			continue
		}
		p.add(x, alpha*rx)
		share := (1 - alpha) * rx / float64(d)
		r.val[x] = 0
		for _, y := range g.Neighbors(x) {
			r.add(y, share)
			if r.val[y] >= eps*float64(g.Degree(y)) && !inQueue[y] {
				inQueue[y] = true
				tail := head + size - 1 // size still counts x
				if tail >= len(q) {
					tail -= len(q)
				}
				q[tail] = y
				size++
			}
		}
	}
}

func pprPredict(g *graph.Graph, k int, opt Options) []Pair {
	n := g.NumNodes()
	type hit struct {
		v graph.NodeID
		s float64
	}
	workers := workerCount(opt)
	accs := make([]map[uint64]float64, workers)
	scratch := make([]*pprScratch, workers)
	hitBufs := make([][]hit, workers)
	shardRange(opt, n, workers, func(wk, lo, hi int) {
		if scratch[wk] == nil {
			scratch[wk] = newPPRScratch(n)
			accs[wk] = make(map[uint64]float64)
			hitBufs[wk] = make([]hit, 0, 1024)
		}
		opt.rec.addNodes(int64(hi - lo))
		s, acc := scratch[wk], accs[wk]
		for u := lo; u < hi; u++ {
			uid := graph.NodeID(u)
			if g.Degree(uid) == 0 {
				continue
			}
			pprPush(g, uid, opt.PPRAlpha, opt.PPREps, s)
			hits := hitBufs[wk][:0]
			for _, v := range s.p.touched {
				if v == uid || g.HasEdge(uid, v) {
					continue
				}
				hits = append(hits, hit{v: v, s: s.p.val[v]})
			}
			// Ownership filter below, not here: truncation to pprPerSource
			// must see the full hit list so the retained set matches the
			// unrestricted sweep's exactly.
			if len(hits) > pprPerSource {
				// Total order (score desc, target asc) so the truncated set
				// is independent of the sort implementation, not only of the
				// worker count.
				slices.SortFunc(hits, func(a, b hit) int {
					if a.s != b.s {
						if a.s > b.s {
							return -1
						}
						return 1
					}
					return cmp.Compare(a.v, b.v)
				})
				hits = hits[:pprPerSource]
			}
			for _, h := range hits {
				if !opt.ownsPair(uid, h.v) {
					continue
				}
				acc[PairKey(uid, h.v)] += h.s
			}
			hitBufs[wk] = hits[:0]
		}
	})
	// Merge the per-worker accumulators. Each pair receives at most two
	// contributions (one per endpoint's push), and two-operand float sums
	// are commutative, so the merged values are worker-count independent.
	var acc map[uint64]float64
	for _, part := range accs {
		if part == nil {
			continue
		}
		if acc == nil {
			acc = part
			continue
		}
		for key, s := range part {
			acc[key] += s
		}
	}
	top := newTopKRec(k, opt)
	for key, s := range acc {
		u, v := KeyPair(key)
		top.Add(u, v, s)
	}
	return top.Result()
}

func pprScorePairs(g *graph.Graph, pairs []Pair, opt Options) []float64 {
	n := g.NumNodes()
	out := make([]float64, len(pairs))
	workers := workerCount(opt)
	scratch := make([]*pprScratch, workers)
	// Two passes: once grouped by U adding π_u[v], once grouped by V adding
	// π_v[u]. Each pass shards the grouped index list; a pass completes
	// fully before the next starts, so the two += writes per output slot
	// never race.
	for pass := 0; pass < 2; pass++ {
		src := func(pr Pair) graph.NodeID {
			if pass == 0 {
				return pr.U
			}
			return pr.V
		}
		dst := func(pr Pair) graph.NodeID {
			if pass == 0 {
				return pr.V
			}
			return pr.U
		}
		idx := sourceSortedIndex(pairs, src)
		shardRange(opt, len(idx), workers, func(wk, lo, hi int) {
			if scratch[wk] == nil {
				scratch[wk] = newPPRScratch(n)
			}
			s := scratch[wk]
			cur := graph.NodeID(-1)
			first := true
			for _, i := range idx[lo:hi] {
				if sv := src(pairs[i]); sv != cur || first {
					cur = sv
					first = false
					pprPush(g, cur, opt.PPRAlpha, opt.PPREps, s)
				}
				out[i] += s.p.val[dst(pairs[i])]
			}
		})
	}
	return out
}
