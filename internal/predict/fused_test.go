package predict

import (
	"testing"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
)

// The fused sweep kernels must be indistinguishable from the per-pair
// intersection reference: same candidate set, bit-identical float scores,
// identical top-k output at every worker count, and identical telemetry
// counts. These tests pin that contract on seeded random graphs.

// fusedMetrics returns every algorithm implemented as a localMetric: the
// paper's 7 local metrics.
func fusedMetrics() []*localMetric {
	return []*localMetric{cn, jc, aa, ra, bcn, baa, bra}
}

// fusedWorkerCounts are the engine configurations the kernels are checked
// at: serial, even splits, and a count that does not divide the node range.
func fusedWorkerCounts() []int { return []int{1, 2, 4, 7} }

// fusedGraphs are the seeded fixtures: dense, sparse, and one with
// isolated nodes (randomGraph draws endpoints independently, so some nodes
// get no edges).
func fusedGraphs() []*graph.Graph {
	return []*graph.Graph{
		randomGraph(1, 60, 400),
		randomGraph(2, 150, 300),
		randomGraph(3, 40, 60),
	}
}

// TestFusedKernelsMatchReferencePredict cross-checks the fused Predict
// against the visit-callback reference for every local metric, asserting
// bit-identical top-k output (pairs, order, and float scores) at worker
// counts 1/2/4/7.
func TestFusedKernelsMatchReferencePredict(t *testing.T) {
	const k = 40
	for gi, g := range fusedGraphs() {
		for _, m := range fusedMetrics() {
			opt := DefaultOptions()
			opt.Workers = 1
			want := m.referencePredict(g, k, opt)
			if len(want) == 0 {
				t.Fatalf("graph %d %s: reference produced no predictions", gi, m.name)
			}
			for _, w := range fusedWorkerCounts() {
				opt.Workers = w
				got := m.Predict(g, k, opt)
				if len(got) != len(want) {
					t.Errorf("graph %d %s workers=%d: %d pairs, reference %d",
						gi, m.name, w, len(got), len(want))
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("graph %d %s workers=%d: rank %d fused %+v, reference %+v",
							gi, m.name, w, i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}

// fusedQueryPairs builds a deliberately hostile ScorePairs batch: every
// unordered pair (connected pairs included), a swathe of non-canonical
// (U > V) queries, and self-pairs, in unsorted order.
func fusedQueryPairs(g *graph.Graph) []Pair {
	n := graph.NodeID(g.NumNodes())
	var pairs []Pair
	for u := graph.NodeID(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, Pair{U: u, V: v})
		}
	}
	for i := graph.NodeID(0); i < 30 && i+1 < n; i++ {
		pairs = append(pairs, Pair{U: n - i - 1, V: i % (n - i - 1)}) // U > V
		pairs = append(pairs, Pair{U: i, V: i})                       // self
	}
	for i, j := 0, len(pairs)-1; i < j; i, j = i+2, j-3 {
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
	return pairs
}

// TestFusedKernelsMatchReferenceScorePairs cross-checks the fused batch
// path against the per-pair reference, asserting equal score vectors
// (bit-identical floats) at worker counts 1/2/4/7.
func TestFusedKernelsMatchReferenceScorePairs(t *testing.T) {
	for gi, g := range fusedGraphs() {
		pairs := fusedQueryPairs(g)
		for _, m := range fusedMetrics() {
			opt := DefaultOptions()
			opt.Workers = 1
			want := m.referenceScorePairs(g, pairs, opt)
			for _, w := range fusedWorkerCounts() {
				opt.Workers = w
				got := m.ScorePairs(g, pairs, opt)
				if len(got) != len(want) {
					t.Fatalf("graph %d %s workers=%d: length mismatch", gi, m.name, w)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("graph %d %s workers=%d: score[%d] fused %v, reference %v (pair %+v)",
							gi, m.name, w, i, got[i], want[i], pairs[i])
						break
					}
				}
			}
		}
	}
}

// TestFusedPairsScoredMatchesReference asserts the fused Predict reports
// exactly as many pairs_scored as the reference enumeration produces
// candidates — the fused sweep must offer the same candidate set to the
// top-k selectors, not an approximation of it.
func TestFusedPairsScoredMatchesReference(t *testing.T) {
	g := randomGraph(9, 200, 900)
	var want int64
	twoHopPairs(g, func(u, v graph.NodeID) { want++ })
	for _, alg := range []Algorithm{CN, BRA} {
		for _, workers := range []int{1, 4} {
			withTelemetry(t, func() {
				opt := DefaultOptions()
				opt.Workers = workers
				// 200 sources fit one pruneBatchMin batch, so no source is
				// pruned and the candidate set must equal the full
				// enumeration (prune_test.go covers graphs that prune).
				alg.Predict(g, 50, opt)
				key := "predict/" + alg.Name() + "/pairs_scored"
				got, ok := obs.Snapshot().Counters[key]
				if !ok {
					t.Fatalf("%s workers=%d: counter %q missing", alg.Name(), workers, key)
				}
				if got != want {
					t.Errorf("%s workers=%d: pairs_scored = %d, reference enumerates %d",
						alg.Name(), workers, got, want)
				}
			})
		}
	}
}

// TestFusedPredictAllocs is the allocation regression guard: the fused
// Predict path must perform zero per-pair allocations. Each call allocates
// a constant set of per-call state (per-worker scratch, selectors, merge)
// regardless of how many candidate pairs it scores, so the per-run count is
// asserted against a small fixed bound while the sweep scores tens of
// thousands of pairs.
func TestFusedPredictAllocs(t *testing.T) {
	g := randomGraph(4, 400, 4000)
	var pairs int64
	twoHopPairs(g, func(u, v graph.NodeID) { pairs++ })
	if pairs < 10000 {
		t.Fatalf("fixture too small: %d candidate pairs", pairs)
	}
	const maxAllocs = 48
	for _, alg := range []Algorithm{CN, JC, AA, RA, BCN, BAA, BRA} {
		opt := DefaultOptions()
		opt.Workers = 1
		allocs := testing.AllocsPerRun(5, func() { alg.Predict(g, 200, opt) })
		if allocs > maxAllocs {
			t.Errorf("%s: %v allocs per Predict over %d candidate pairs, want <= %d fixed",
				alg.Name(), allocs, pairs, maxAllocs)
		}
	}
}

// TestFusedScorePairsAllocs pins the batch path the same way: out, the
// source-sorted index, and per-worker scratch — never per-query
// allocations.
func TestFusedScorePairsAllocs(t *testing.T) {
	g := randomGraph(4, 400, 4000)
	var pairs []Pair
	twoHopPairs(g, func(u, v graph.NodeID) {
		if len(pairs) < 5000 {
			pairs = append(pairs, Pair{U: u, V: v})
		}
	})
	const maxAllocs = 24
	for _, alg := range []Algorithm{CN, RA, BCN} {
		opt := DefaultOptions()
		opt.Workers = 1
		allocs := testing.AllocsPerRun(5, func() { alg.ScorePairs(g, pairs, opt) })
		if allocs > maxAllocs {
			t.Errorf("%s: %v allocs per ScorePairs over %d queries, want <= %d fixed",
				alg.Name(), allocs, len(pairs), maxAllocs)
		}
	}
}
