package predict

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"linkpred/internal/graph"
)

// predictSharded runs one Predict per shard of a disjoint source cover and
// merges the partial lists — the in-process model of the cluster's
// scatter/gather path.
func predictSharded(g *graph.Graph, alg Algorithm, k, shards int, opt Options) []Pair {
	n := g.NumNodes()
	parts := make([][]Pair, shards)
	for s := 0; s < shards; s++ {
		o := opt
		r := ShardSourceRange(n, s, shards)
		o.SourceRange = &r
		parts[s] = alg.Predict(g, k, o)
	}
	return MergeTopK(parts, k, opt.Seed)
}

// TestShardedPredictMergeEquivalence is the distributed-correctness
// property test: for every registry algorithm, merging the top-k lists of
// N source shards is bit-identical to the unrestricted single-process
// sweep, for shard counts {1, 2, 3, 5, 8} at per-shard worker counts
// {1, 4}.
func TestShardedPredictMergeEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"kite":   kite(), // tiny: most shards own zero or one source
		"random": randomGraph(42, 400, 1600),
	}
	const k = 25
	for gname, g := range graphs {
		for _, alg := range registry {
			t.Run(fmt.Sprintf("%s/%s", gname, alg.Name()), func(t *testing.T) {
				for _, workers := range []int{1, 4} {
					opt := DefaultOptions()
					opt.Workers = workers
					opt.RandomCandidates = 500
					// PPR repeats its full push sweep in every shard by
					// design; a coarser residual threshold keeps the 38
					// sweeps this test runs per algorithm affordable.
					opt.PPREps = 1e-3
					want := alg.Predict(g, k, opt)
					for _, shards := range []int{1, 2, 3, 5, 8} {
						got := predictSharded(g, alg, k, shards, opt)
						assertSamePairs(t, want, got,
							fmt.Sprintf("%d shards x %d workers", shards, workers))
					}
				}
			})
		}
	}
}

// TestMergeTopKOrderInvariance: the merge is a function of the union, not
// of part order or part boundaries.
func TestMergeTopKOrderInvariance(t *testing.T) {
	g := randomGraph(3, 200, 800)
	opt := DefaultOptions()
	const k = 15
	n := g.NumNodes()
	parts := make([][]Pair, 4)
	for s := range parts {
		o := opt
		r := ShardSourceRange(n, s, len(parts))
		o.SourceRange = &r
		parts[s] = AA.Predict(g, k, o)
	}
	want := MergeTopK(parts, k, opt.Seed)
	reversed := make([][]Pair, len(parts))
	for i, p := range parts {
		reversed[len(parts)-1-i] = p
	}
	assertSamePairs(t, want, MergeTopK(reversed, k, opt.Seed), "reversed part order")
	// Merge of merges: regrouping the parts must not change the result.
	regrouped := [][]Pair{
		MergeTopK(parts[:2], k, opt.Seed),
		MergeTopK(parts[2:], k, opt.Seed),
		nil,
	}
	assertSamePairs(t, want, MergeTopK(regrouped, k, opt.Seed), "merge of merges")
}

// TestHostileSizesAllocateByResult: a request's k and shard count size
// nothing. MergeTopK at k = MaxInt32 and one range of a 2·10⁹-way split
// return what the candidate-count-sized call returns, inside a heap budget
// five orders of magnitude under what sizing by the request would take.
func TestHostileSizesAllocateByResult(t *testing.T) {
	g := randomGraph(3, 200, 800)
	parts := [][]Pair{CN.Predict(g, 7, DefaultOptions()), AA.Predict(g, 5, DefaultOptions())}
	want := MergeTopK(parts, 12, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	merged := MergeTopK(parts, math.MaxInt32, 1)
	first := WeightedSourceRangeFor(g, 0, 2_000_000_000, CostWedge)
	last := WeightedSourceRangeFor(g, 1_999_999_999, 2_000_000_000, CostWedge)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("hostile sizes allocated %d bytes, want under 1 MiB", grew)
	}
	assertSamePairs(t, want, merged, "MergeTopK k=MaxInt32")
	if first != (SourceRange{0, 0}) || last.Hi != g.NumNodes() || last.Lo >= last.Hi {
		t.Errorf("2e9-way split: shard 0 = %v, last shard = %v over %d nodes", first, last, g.NumNodes())
	}
}

// TestWeightedSourceRanges pins the weighted split's invariants — a
// contiguous disjoint cover of [0, n) at every shard count — and the merge
// contract on weighted boundaries (the partition the serving layer actually
// uses; merge exactness must hold for ANY contiguous partition).
func TestWeightedSourceRanges(t *testing.T) {
	g := randomGraph(21, 300, 1500)
	n := g.NumNodes()
	for _, shards := range []int{1, 2, 3, 7, 16, 400} {
		ranges := WeightedSourceRanges(g, shards)
		if len(ranges) != shards {
			t.Fatalf("shards=%d: got %d ranges", shards, len(ranges))
		}
		prev := 0
		for s, r := range ranges {
			if r.Lo != prev || r.Hi < r.Lo {
				t.Fatalf("shards=%d: shard %d range [%d,%d) breaks cover at %d", shards, s, r.Lo, r.Hi, prev)
			}
			if one := WeightedSourceRangeFor(g, s, shards, CostWedge); one != r {
				t.Fatalf("shards=%d: WeightedSourceRangeFor(shard %d) = %v, want %v", shards, s, one, r)
			}
			prev = r.Hi
		}
		if prev != n {
			t.Fatalf("shards=%d: cover ends at %d, want %d", shards, prev, n)
		}
	}
	const k = 20
	for _, alg := range []Algorithm{CN, AA, PA, LP} {
		opt := DefaultOptions()
		want := alg.Predict(g, k, opt)
		for _, shards := range []int{3, 6} {
			parts := make([][]Pair, shards)
			for s, r := range WeightedSourceRanges(g, shards) {
				o := opt
				r := r
				o.SourceRange = &r
				parts[s] = alg.Predict(g, k, o)
			}
			assertSamePairs(t, want, MergeTopK(parts, k, opt.Seed),
				fmt.Sprintf("%s weighted, %d shards", alg.Name(), shards))
		}
	}
}

// TestShardSourceRange pins the contiguous-cover invariants.
func TestShardSourceRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 97, 1000} {
		for _, shards := range []int{1, 2, 3, 8, 13} {
			prev := 0
			for s := 0; s < shards; s++ {
				r := ShardSourceRange(n, s, shards)
				if r.Lo != prev {
					t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", n, shards, s, r.Lo, prev)
				}
				if r.Hi < r.Lo {
					t.Fatalf("n=%d shards=%d: shard %d inverted range [%d,%d)", n, shards, s, r.Lo, r.Hi)
				}
				prev = r.Hi
			}
			if prev != n {
				t.Fatalf("n=%d shards=%d: cover ends at %d", n, shards, prev)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ShardSourceRange accepted an invalid shard index")
		}
	}()
	ShardSourceRange(10, 3, 3)
}

// TestTieHashMatchesSelector: the exported hash is the one the selector
// orders equal scores by, in either endpoint order.
func TestTieHashMatchesSelector(t *testing.T) {
	if TieHash(9, 3, 7) != TieHash(9, 7, 3) {
		t.Fatal("TieHash is not endpoint-order invariant")
	}
	if TieHash(9, 3, 7) != tieHash(9, 3, 7) {
		t.Fatal("TieHash diverges from the internal tie hash")
	}
}

func assertSamePairs(t *testing.T, want, got []Pair, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: rank %d: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}
