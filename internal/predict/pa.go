package predict

import (
	"linkpred/internal/graph"
	"linkpred/internal/snapcache"
)

// PA is Preferential Attachment [Barabási & Albert 1999]: score(u,v) =
// deg(u) * deg(v). Predict computes the exact global top-k with a frontier
// heap over the degree-sorted node list, the "top-K node pairs" optimization
// the paper mentions for PA's fast runtime (§3.2). The frontier expansion is
// inherently sequential (each pop decides the next pushes), so Predict runs
// on one goroutine regardless of Options.Workers — it is already the
// cheapest algorithm by orders of magnitude; ScorePairs shards normally.
var PA Algorithm = &algo{name: "PA", cost: CostWedge, predict: paPredict, score: paScorePairs}

func paScorePairs(g *graph.Graph, pairs []Pair, opt Options) []float64 {
	out := make([]float64, len(pairs))
	shardRange(opt, len(pairs), workerCount(opt), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float64(g.Degree(pairs[i].U)) * float64(g.Degree(pairs[i].V))
		}
	})
	return out
}

// paFrontier is a max-heap of (i, j) index pairs into the degree-sorted node
// list, ordered by degree product.
type paFrontier struct {
	items []paItem
}

type paItem struct {
	i, j    int32
	product int64
}

func (f *paFrontier) push(it paItem) {
	f.items = append(f.items, it)
	i := len(f.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if f.items[parent].product >= f.items[i].product {
			break
		}
		f.items[parent], f.items[i] = f.items[i], f.items[parent]
		i = parent
	}
}

func (f *paFrontier) pop() paItem {
	top := f.items[0]
	last := len(f.items) - 1
	f.items[0] = f.items[last]
	f.items = f.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < last && f.items[l].product > f.items[largest].product {
			largest = l
		}
		if r < last && f.items[r].product > f.items[largest].product {
			largest = r
		}
		if largest == i {
			break
		}
		f.items[i], f.items[largest] = f.items[largest], f.items[i]
		i = largest
	}
	return top
}

func paPredict(g *graph.Graph, k int, opt Options) []Pair {
	n := g.NumNodes()
	if n < 2 || k <= 0 {
		return nil
	}
	// Nodes sorted by descending degree (stable on ID for determinism),
	// shared through the snapshot cache with the other supernode consumers.
	order := snapcache.For(g).DegreeOrder()
	deg := func(i int32) int64 { return int64(g.Degree(order[i])) }

	top := newTopKRec(k, opt)
	var frontier paFrontier
	frontier.push(paItem{i: 0, j: 1, product: deg(0) * deg(1)})
	visited := map[uint64]bool{PairKey(0, 1): true}
	// The frontier pops products in non-increasing order, so once the top-k
	// heap is full and the next product is strictly worse than its minimum,
	// the selection is exact. Under a SourceRange the frontier expansion is
	// unchanged and only emission is filtered by pair ownership; the early
	// break then reasons about the heap of owned pairs, which is exact for
	// the shard's universe (a sparser frontier just pops further).
	for len(frontier.items) > 0 {
		it := frontier.pop()
		if len(top.pairs) == k && float64(it.product) < top.pairs[0].Score {
			break
		}
		u, v := order[it.i], order[it.j]
		if opt.ownsPair(u, v) && !g.HasEdge(u, v) {
			top.Add(u, v, float64(it.product))
		}
		if int(it.i+1) < n && it.i+1 < it.j {
			key := PairKey(it.i+1, it.j)
			if !visited[key] {
				visited[key] = true
				frontier.push(paItem{i: it.i + 1, j: it.j, product: deg(it.i+1) * deg(it.j)})
			}
		}
		if int(it.j+1) < n {
			key := PairKey(it.i, it.j+1)
			if !visited[key] {
				visited[key] = true
				frontier.push(paItem{i: it.i, j: it.j + 1, product: deg(it.i) * deg(it.j+1)})
			}
		}
	}
	return top.Result()
}
