package predict

import (
	"cmp"
	"math/rand"
	"slices"

	"linkpred/internal/graph"
	"linkpred/internal/par"
	"linkpred/internal/snapcache"
)

// The latent-space algorithms (Katz, Rescal) rank a bounded global candidate
// set: every unconnected 2-hop pair, the pairings of the TopDegreeBlock
// highest-degree nodes with all other nodes, and a seeded sample of
// RandomCandidates distant pairs. Each unconnected pair is emitted at most
// once across the three phases.
//
// The paper scores all O(|V|²) pairs on a server fleet; this bounded set
// preserves the regions where those algorithms actually place their top-k
// mass — short-range pairs (the overwhelming majority of predictions, §4.2)
// and supernode pairings (where Rescal concentrates, Table 5) — while
// keeping single-machine runtimes practical. DESIGN.md documents the
// substitution, and the ablation benchmark compares against exhaustive
// enumeration on a small graph.

// degreeBlock computes the degree-descending node order and the block
// membership mask shared by phases 2 and 3.
func degreeBlock(g *graph.Graph, opt Options) (order []graph.NodeID, inBlock []bool, blockSize int) {
	n := g.NumNodes()
	blockSize = opt.TopDegreeBlock
	if blockSize > n {
		blockSize = n
	}
	order = make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	slices.SortStableFunc(order, func(a, b graph.NodeID) int {
		if c := cmp.Compare(g.Degree(b), g.Degree(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	inBlock = make([]bool, n)
	for _, u := range order[:blockSize] {
		inBlock[u] = true
	}
	return order, inBlock, blockSize
}

// blockPairEligible reports whether phase 2 emits (u, vid) for block entry
// (bi, u): skips self/connected pairs, dedups block-block pairs to one
// orientation, and skips 2-hop pairs already covered by phase 1.
func blockPairEligible(g *graph.Graph, order []graph.NodeID, inBlock []bool, blockSize, bi int, u, vid graph.NodeID) bool {
	if vid == u || g.HasEdge(u, vid) {
		return false
	}
	if inBlock[vid] {
		// Emit block-block pairs once (by block order).
		if idx := blockIndex(order[:blockSize], vid); idx < bi {
			return false
		}
	}
	return g.CountCommonNeighbors(u, vid) == 0
}

// randomCandidates emits the phase-3 seeded random distant pairs, avoiding
// everything phases 1 and 2 covered. The single RNG stream is part of the
// deterministic contract, so this phase always runs serially.
func randomCandidates(g *graph.Graph, opt Options, inBlock []bool, emit func(u, v graph.NodeID)) {
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x5eed))
	seen := make(map[uint64]bool, opt.RandomCandidates)
	for i := 0; i < opt.RandomCandidates; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v || inBlock[u] || inBlock[v] || g.HasEdge(u, v) {
			continue
		}
		if key := PairKey(u, v); seen[key] {
			continue
		} else {
			seen[key] = true
		}
		if g.CountCommonNeighbors(u, v) > 0 {
			continue
		}
		emit(u, v)
	}
}

// globalCandidates is the serial single-stream enumeration of the full
// candidate set, kept as the reference the parallel path and the tests
// compare against.
func globalCandidates(g *graph.Graph, opt Options, emit func(u, v graph.NodeID)) {
	n := g.NumNodes()
	if n < 2 {
		return
	}
	// Phase 1: all unconnected 2-hop pairs.
	twoHopPairs(g, emit)

	// Phase 2: top-degree block x everyone.
	order, inBlock, blockSize := degreeBlock(g, opt)
	for bi, u := range order[:blockSize] {
		for v := 0; v < n; v++ {
			vid := graph.NodeID(v)
			if blockPairEligible(g, order, inBlock, blockSize, bi, u, vid) {
				emit(u, vid)
			}
		}
	}

	// Phase 3: seeded random distant pairs.
	randomCandidates(g, opt, inBlock, emit)
}

// predictGlobal ranks the bounded global candidate set under score, sharding
// the 2-hop sweep (by source node) and the top-degree block pairings (by the
// non-block side) across workers; score must be safe for concurrent calls
// over read-only state. The per-worker selections merge deterministically,
// so the result matches the serial enumeration bit for bit.
//
// With a SourceRange set, phase 1 restricts its source loop while phases 2
// and 3 run their full traversals — the block dedup and the phase-3 RNG
// stream plus its seen-set are order-sensitive, so every shard replays them
// identically — and filter emission by pair ownership. The three phases
// emit disjoint pair sets, so the ownership filter partitions the exact
// serial candidate set across shards. Latent scores are pure per-pair
// functions of cached factor matrices, so partition plus per-pair scoring
// merges bit-identically.
func predictGlobal(g *graph.Graph, k int, opt Options, score func(u, v graph.NodeID) float64) []Pair {
	n := g.NumNodes()
	if n < 2 {
		return nil
	}
	// Phase 1: sharded 2-hop sweep.
	parts := twoHopParts(g, k, opt, func(u, v graph.NodeID, top *topK) {
		top.Add(u, v, score(u, v))
	})

	// Phase 2: top-degree block x everyone, sharded over block entries. For
	// each block node u one stamp pass marks everything phase 2 must skip —
	// u itself, its direct neighbors, and every node sharing a common
	// neighbor with u (the 2-hop shell phase 1 already covered) — so the
	// n-node scan below replaces the former per-pair intersection counting
	// with an O(1) stamp test. The candidate set is exactly the one
	// blockPairEligible admits, which the serial-enumeration equivalence
	// test pins.
	blk := snapcache.For(g).Block(opt.TopDegreeBlock)
	workers := workerCount(opt)
	blockParts := make([]*topK, workers)
	stamps := make([][]int32, workers)
	par.ShardRangeCtx(opt.Ctx, len(blk.Order), workers, 1, func(wk, lo, hi int) {
		if blockParts[wk] == nil {
			blockParts[wk] = newTopKRec(k, opt)
			stamps[wk] = newStamp(n)
		}
		top, stamp := blockParts[wk], stamps[wk]
		for bi := lo; bi < hi; bi++ {
			u := blk.Order[bi]
			mark := int32(bi)
			stamp[u] = mark
			for _, w := range g.Neighbors(u) {
				stamp[w] = mark
				for _, x := range g.Neighbors(w) {
					stamp[x] = mark
				}
			}
			for v := 0; v < n; v++ {
				vid := graph.NodeID(v)
				if stamp[vid] == mark {
					continue
				}
				// Emit block-block pairs once (by block order).
				if blk.In[vid] && blk.Pos[vid] < int32(bi) {
					continue
				}
				if !opt.ownsPair(u, vid) {
					continue
				}
				top.Add(u, vid, score(u, vid))
			}
		}
	})

	// Phase 3: serial random distant pairs.
	rest := newTopKRec(k, opt)
	randomCandidates(g, opt, blk.In, func(u, v graph.NodeID) {
		if !opt.ownsPair(u, v) {
			return
		}
		rest.Add(u, v, score(u, v))
	})

	parts = append(parts, blockParts...)
	parts = append(parts, rest)
	return mergeTopK(k, opt.Seed, parts).Result()
}

// latent is one latent-factor algorithm (Katz, KatzSC, Rescal), the third
// engine: it fetches the snapshot's cached factors — building them at most
// once per snapshot and parameter set — and returns the pair score over
// them, safe for concurrent calls. The score closure is written where the
// factors are fetched, not built by a shared helper: a helper small enough
// to inline leaves a closure copy whose Dot and Row calls are not inlined
// (measured +20% on Katz Predict). Predict ranks the bounded global
// candidate set under that score; ScorePairs is a sharded pair loop.
type latent func(g *graph.Graph, opt Options) func(u, v graph.NodeID) float64

// row is the registry row of a latent algorithm: the factorizations read
// every adjacency row, do per-source work proportional to a row, and are
// the artifacts worth building off the request path.
func (l latent) row(name string) *algo {
	return &algo{name: name, cost: CostRows, predict: l.predict, score: l.scorePairs,
		warm: func(g *graph.Graph, opt Options) { l(g, opt) }}
}

func (l latent) predict(g *graph.Graph, k int, opt Options) []Pair {
	return predictGlobal(g, k, opt, l(g, opt))
}

func (l latent) scorePairs(g *graph.Graph, pairs []Pair, opt Options) []float64 {
	score := l(g, opt)
	out := make([]float64, len(pairs))
	shardRange(opt, len(pairs), workerCount(opt), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = score(pairs[i].U, pairs[i].V)
		}
	})
	return out
}

// blockIndex finds v in the block slice (linear scan; blocks are small).
func blockIndex(block []graph.NodeID, v graph.NodeID) int {
	for i, b := range block {
		if b == v {
			return i
		}
	}
	return len(block)
}
