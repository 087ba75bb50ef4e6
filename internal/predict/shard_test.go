package predict

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"linkpred/internal/graph"
)

// costModels is every CostModel. Each one's split is just another
// contiguous cover of [0, n), and merge exactness must hold on any of them.
var costModels = []CostModel{CostWedge, CostCappedWedge, CostRows}

// predictSharded runs one Predict per shard of the model's source cover and
// merges the partial lists — the in-process model of the cluster's
// scatter/gather path.
func predictSharded(g *graph.Graph, alg Algorithm, k, shards int, model CostModel, opt Options) []Pair {
	parts := make([][]Pair, shards)
	for s, r := range WeightedSourceRangesFor(g, shards, model) {
		o := opt
		o.SourceRange = &r
		parts[s] = alg.Predict(g, k, o)
	}
	return MergeTopK(parts, k, opt.Seed)
}

// TestShardedPredictMergeEquivalence is the distributed-correctness
// property test: for every registry algorithm, merging the top-k lists of
// N source shards is bit-identical to the unrestricted single-process
// sweep, for shard counts {1, 2, 3, 5, 8} under every cost model's
// boundaries at per-shard worker counts {1, 4}.
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
					// design; a coarser residual threshold keeps the 114
					// sweeps this test runs per algorithm affordable.
					opt.PPREps = 1e-3
					want := alg.Predict(g, k, opt)
					for _, model := range costModels {
						for _, shards := range []int{1, 2, 3, 5, 8} {
							got := predictSharded(g, alg, k, shards, model, opt)
							assertSamePairs(t, want, got,
								fmt.Sprintf("model %d, %d shards x %d workers", model, shards, workers))
						}
					}
				}
			})
		}
	}
}

// TestPartitionedPredictEquivalence: merge exactness on an equal-count
// partition of the source space whose last range is open-ended (Hi far past
// n, as a static cover written without knowing the graph's size would be).
// The open-ended partial equals the sweep with Hi clamped to n, and merging
// the partials is bit-identical to the unrestricted sweep, for every
// registry row at shard counts {1, 2, 3, 5, 8} and worker counts {1, 4}.
func TestPartitionedPredictEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"kite":   kite(),
		"random": randomGraph(42, 400, 1600),
	}
	const k = 25
	for gname, g := range graphs {
		n := g.NumNodes()
		for _, alg := range registry {
			t.Run(fmt.Sprintf("%s/%s", gname, alg.Name()), func(t *testing.T) {
				for _, workers := range []int{1, 4} {
					opt := DefaultOptions()
					opt.Workers = workers
					opt.RandomCandidates = 500
					opt.PPREps = 1e-3 // as in TestShardedPredictMergeEquivalence
					want := alg.Predict(g, k, opt)
					for _, shards := range []int{1, 2, 3, 5, 8} {
						parts := make([][]Pair, shards)
						for s := range parts {
							o := opt
							o.SourceRange = &SourceRange{Lo: s * n / shards, Hi: (s + 1) * n / shards}
							if s == shards-1 {
								o.SourceRange.Hi = 1 << 30
							}
							parts[s] = alg.Predict(g, k, o)
						}
						clamped := opt
						clamped.SourceRange = &SourceRange{Lo: (shards - 1) * n / shards, Hi: n}
						assertSamePairs(t, alg.Predict(g, k, clamped), parts[shards-1],
							fmt.Sprintf("open-ended last range, %d shards x %d workers", shards, workers))
						assertSamePairs(t, want, MergeTopK(parts, k, opt.Seed),
							fmt.Sprintf("merged, %d shards x %d workers", shards, workers))
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
	want := AA.Predict(g, k, opt)
	for _, model := range costModels {
		parts := make([][]Pair, 4)
		for s, r := range WeightedSourceRangesFor(g, len(parts), model) {
			o := opt
			o.SourceRange = &r
			parts[s] = AA.Predict(g, k, o)
		}
		assertSamePairs(t, want, MergeTopK(parts, k, opt.Seed), fmt.Sprintf("model %d", model))
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

// TestWeightedSourceRanges pins every cost model's split invariants — a
// contiguous disjoint cover of [0, n) at every shard count, each range equal
// to what WeightedSourceRangeFor computes alone — and the merge contract on
// those boundaries (the ones the serving layer actually uses; merge
// exactness must hold for ANY contiguous cover).
func TestWeightedSourceRanges(t *testing.T) {
	g := randomGraph(21, 300, 1500)
	n := g.NumNodes()
	for _, model := range costModels {
		for _, shards := range []int{1, 2, 3, 7, 16, 400} {
			ranges := WeightedSourceRangesFor(g, shards, model)
			if len(ranges) != shards {
				t.Fatalf("model=%d shards=%d: got %d ranges", model, shards, len(ranges))
			}
			prev := 0
			for s, r := range ranges {
				if r.Lo != prev || r.Hi < r.Lo {
					t.Fatalf("model=%d shards=%d: shard %d range [%d,%d) breaks cover at %d", model, shards, s, r.Lo, r.Hi, prev)
				}
				if one := WeightedSourceRangeFor(g, s, shards, model); one != r {
					t.Fatalf("model=%d shards=%d: WeightedSourceRangeFor(shard %d) = %v, want %v", model, shards, s, one, r)
				}
				prev = r.Hi
			}
			if prev != n {
				t.Fatalf("model=%d shards=%d: cover ends at %d, want %d", model, shards, prev, n)
			}
		}
	}
	const k = 20
	for _, alg := range []Algorithm{CN, AA, PA, LP} {
		opt := DefaultOptions()
		want := alg.Predict(g, k, opt)
		for _, model := range costModels {
			for _, shards := range []int{3, 6} {
				assertSamePairs(t, want, predictSharded(g, alg, k, shards, model, opt),
					fmt.Sprintf("%s model %d, %d shards", alg.Name(), model, shards))
			}
		}
	}
}

// TestCostModelRanges pins merge exactness on the boundaries each row's own
// cost model chooses — the split the router asks shards for — for rows of
// both non-default models.
func TestCostModelRanges(t *testing.T) {
	g := randomGraph(21, 300, 1500)
	const k = 20
	for _, alg := range []Algorithm{BCN, BAA, LRW} {
		model := CostModelFor(alg.Name())
		opt := DefaultOptions()
		assertSamePairs(t, alg.Predict(g, k, opt), predictSharded(g, alg, k, 3, model, opt),
			fmt.Sprintf("%s under model %d", alg.Name(), model))
	}
}

// TestCostModelFor pins the family assignments the router relies on: every
// registry row carries the cost model written here, and a row added
// without a line in this table fails.
func TestCostModelFor(t *testing.T) {
	want := map[string]CostModel{
		"CN": CostWedge, "JC": CostWedge, "AA": CostWedge, "RA": CostWedge, "PA": CostWedge,
		"Salton": CostWedge, "Sorensen": CostWedge, "HPI": CostWedge, "HDI": CostWedge, "LHN": CostWedge,
		"BCN": CostCappedWedge, "BAA": CostCappedWedge, "BRA": CostCappedWedge,
		"SP": CostRows, "LP": CostRows, "PPR": CostRows, "LRW": CostRows,
		"SRW": CostRows, "Katz": CostRows, "KatzSC": CostRows, "KatzExact": CostRows, "Rescal": CostRows,
		"nonsense": CostWedge,
	}
	for _, alg := range registry {
		if _, ok := want[alg.Name()]; !ok {
			t.Errorf("registry row %q has no expected cost model in this table", alg.Name())
		}
	}
	for name, want := range want {
		if got := CostModelFor(name); got != want {
			t.Errorf("CostModelFor(%q) = %d, want %d", name, got, want)
		}
	}
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
