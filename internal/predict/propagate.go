package predict

import "linkpred/internal/graph"

// sparseVec is a reusable dense-array sparse vector: values plus a touched
// list for O(support) reset, the workhorse of the walk- and path-counting
// algorithms (LP, LRW, PPR, Katz_sc columns).
type sparseVec struct {
	val     []float64
	touched []graph.NodeID
	mark    []bool
}

func newSparseVec(n int) *sparseVec {
	return &sparseVec{val: make([]float64, n), mark: make([]bool, n)}
}

func (s *sparseVec) add(i graph.NodeID, v float64) {
	if !s.mark[i] {
		s.mark[i] = true
		s.touched = append(s.touched, i)
	}
	s.val[i] += v
}

func (s *sparseVec) reset() {
	for _, i := range s.touched {
		s.val[i] = 0
		s.mark[i] = false
	}
	s.touched = s.touched[:0]
}

// propagate computes dst = A * src over the graph adjacency, accumulating
// into dst (which should be reset by the caller first).
func propagate(g *graph.Graph, src, dst *sparseVec) {
	for _, x := range src.touched {
		v := src.val[x]
		if v == 0 {
			continue
		}
		for _, y := range g.Neighbors(x) {
			dst.add(y, v)
		}
	}
}

// propagateWalk computes dst = P^T * src where P is the random-walk
// transition matrix (src mass at x spreads as src[x]/deg(x) to neighbors).
func propagateWalk(g *graph.Graph, src, dst *sparseVec) {
	for _, x := range src.touched {
		v := src.val[x]
		d := g.Degree(x)
		if v == 0 || d == 0 {
			continue
		}
		share := v / float64(d)
		for _, y := range g.Neighbors(x) {
			dst.add(y, share)
		}
	}
}

// walkScratch is one worker's propagation state: two ping-pong vectors and
// an accumulator.
type walkScratch struct {
	cur, next, acc *sparseVec
}

func newWalkScratch(n int) *walkScratch {
	return &walkScratch{cur: newSparseVec(n), next: newSparseVec(n), acc: newSparseVec(n)}
}

// propagation is one per-source sparse-propagation algorithm (LP, LRW, SRW,
// KatzExact), the second of the three engines: it fixes the call's
// parameters and returns fill, which leaves score(u, ·) in one of the
// worker's scratch vectors and returns it. The engine owns everything else
// — sharding, per-worker state, candidate filtering, selection — so an
// algorithm is its fill step and nothing more, and the candidate loops below
// read the vector directly: one indirect call per source, none per
// candidate. A nil fill means no pair can score (an edgeless graph).
type propagation func(g *graph.Graph, opt Options) sourceFill

// sourceFill is a propagation's per-source step, bound to one call.
type sourceFill func(u graph.NodeID, s *walkScratch) *sparseVec

// row is the registry row of a propagation algorithm: path and walk
// traversals touch each adjacency row O(1) times per step, and keep
// per-source scratch rather than snapshot artifacts.
func (p propagation) row(name string) *algo {
	return &algo{name: name, cost: CostRows, predict: p.predict, score: p.scorePairs}
}

// predict sweeps the call's source span: every source of nonzero degree is
// filled once and its unconnected higher-ID targets are offered to the
// worker's selector.
func (p propagation) predict(g *graph.Graph, k int, opt Options) []Pair {
	fill := p(g, opt)
	if fill == nil {
		return nil
	}
	n := g.NumNodes()
	base, end := opt.sourceSpan(n)
	workers := workerCount(opt)
	parts := make([]*topK, workers)
	scratch := make([]*walkScratch, workers)
	shardRange(opt, end-base, workers, func(wk, lo, hi int) {
		if parts[wk] == nil {
			parts[wk] = newTopKRec(k, opt)
			scratch[wk] = newWalkScratch(n)
		}
		opt.rec.addNodes(int64(hi - lo))
		top, s := parts[wk], scratch[wk]
		for u := base + lo; u < base+hi; u++ {
			uid := graph.NodeID(u)
			if g.Degree(uid) == 0 {
				continue
			}
			vec := fill(uid, s)
			for _, v := range vec.touched {
				if v <= uid || g.HasEdge(uid, v) {
					continue
				}
				top.Add(uid, v, vec.val[v])
			}
		}
	})
	return mergeTopK(k, opt.Seed, parts).Result()
}

// scorePairs groups the queries by source (sourceSortedIndex) so each
// distinct source within a chunk is filled once.
func (p propagation) scorePairs(g *graph.Graph, pairs []Pair, opt Options) []float64 {
	out := make([]float64, len(pairs))
	fill := p(g, opt)
	if fill == nil {
		return out
	}
	idx := sourceSortedIndex(pairs, func(p Pair) graph.NodeID { return p.U })
	n := g.NumNodes()
	workers := workerCount(opt)
	scratch := make([]*walkScratch, workers)
	shardRange(opt, len(idx), workers, func(wk, lo, hi int) {
		if scratch[wk] == nil {
			scratch[wk] = newWalkScratch(n)
		}
		var vec *sparseVec
		var cur graph.NodeID
		for _, i := range idx[lo:hi] {
			if p := pairs[i]; vec == nil || p.U != cur {
				cur = p.U
				vec = fill(cur, scratch[wk])
			}
			out[i] = vec.val[pairs[i].V]
		}
	})
	return out
}
