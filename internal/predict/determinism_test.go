package predict

import (
	"runtime"
	"testing"

	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/linalg"
)

// The parallel engine's contract is that Predict and ScorePairs are
// bit-identical for every worker count (Yang et al. 2015 stress that
// ranking-based evaluation is only trustworthy when tie-handling is
// reproducible). These tests assert that contract for every registered
// algorithm — the evaluated set, the survey extensions, and the comparators
// — on small Facebook and YouTube preset snapshots.

// detSnapshot generates a small preset snapshot for cross-worker-count
// comparisons.
func detSnapshot(t testing.TB, cfg gen.Config) *graph.Graph {
	t.Helper()
	tr := gen.MustGenerate(cfg)
	cuts := tr.Cuts(gen.DefaultDelta(cfg))
	return tr.SnapshotAtEdge(cuts[len(cuts)-2].EdgeCount)
}

func detGraphs(t testing.TB) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"facebook": detSnapshot(t, gen.Facebook(1).Scaled(0.1)),
		"youtube":  detSnapshot(t, gen.YouTube(2).Scaled(0.1)),
	}
}

// detWorkerCounts are the engine configurations compared: serial, a fixed
// multi-worker count, and whatever the host offers.
func detWorkerCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// TestPredictWorkerInvariance asserts Predict output is bit-identical at
// every worker count: same pairs, same order, same float scores.
func TestPredictWorkerInvariance(t *testing.T) {
	counts := detWorkerCounts()
	for name, g := range detGraphs(t) {
		for _, alg := range registry {
			opt := DefaultOptions()
			opt.RandomCandidates = 2000
			opt.Workers = counts[0]
			ref := alg.Predict(g, 60, opt)
			if len(ref) == 0 {
				t.Errorf("%s/%s: no predictions", name, alg.Name())
				continue
			}
			for _, w := range counts[1:] {
				opt.Workers = w
				got := alg.Predict(g, 60, opt)
				if len(got) != len(ref) {
					t.Errorf("%s/%s: workers=%d returned %d pairs, workers=%d returned %d",
						name, alg.Name(), w, len(got), counts[0], len(ref))
					continue
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Errorf("%s/%s: workers=%d rank %d = %+v, workers=%d = %+v",
							name, alg.Name(), w, i, got[i], counts[0], ref[i])
						break
					}
				}
			}
		}
	}
}

// TestScorePairsWorkerInvariance asserts batch scoring is bit-identical at
// every worker count over a mixed candidate sample (2-hop pairs plus distant
// pairs, in deliberately unsorted order).
func TestScorePairsWorkerInvariance(t *testing.T) {
	counts := detWorkerCounts()
	for name, g := range detGraphs(t) {
		var pairs []Pair
		twoHopPairs(g, func(u, v graph.NodeID) {
			if len(pairs) < 600 {
				pairs = append(pairs, Pair{U: u, V: v})
			}
		})
		// Interleave some arbitrary (possibly distant or connected) pairs and
		// break the sorted-by-U order the sweep produced.
		n := graph.NodeID(g.NumNodes())
		for i := graph.NodeID(0); i < 50 && i+7 < n; i++ {
			pairs = append(pairs, Pair{U: n - i - 1, V: (i * 13) % (n - i - 1)})
		}
		for i, j := 0, len(pairs)-1; i < j; i, j = i+2, j-3 {
			pairs[i], pairs[j] = pairs[j], pairs[i]
		}
		for _, alg := range registry {
			opt := DefaultOptions()
			opt.Workers = counts[0]
			ref := alg.ScorePairs(g, pairs, opt)
			for _, w := range counts[1:] {
				opt.Workers = w
				got := alg.ScorePairs(g, pairs, opt)
				if len(got) != len(ref) {
					t.Fatalf("%s/%s: length mismatch", name, alg.Name())
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Errorf("%s/%s: workers=%d score[%d] = %v, workers=%d = %v",
							name, alg.Name(), w, i, got[i], counts[0], ref[i])
						break
					}
				}
			}
		}
	}
}

// TestPredictGlobalMatchesSerialEnumeration pins the parallel global
// candidate path to the serial single-stream enumeration for one latent
// algorithm (they share predictGlobal, so one suffices).
func TestPredictGlobalMatchesSerialEnumeration(t *testing.T) {
	g := detSnapshot(t, gen.YouTube(5).Scaled(0.08))
	opt := DefaultOptions()
	opt.RandomCandidates = 3000
	opt.Workers = 4
	scaled, raw := katzFactors(g, opt)
	score := func(u, v graph.NodeID) float64 {
		return linalg.Dot(scaled.Row(int(u)), raw.Row(int(v)))
	}
	serial := newTopK(40, opt.Seed)
	globalCandidates(g, opt, func(u, v graph.NodeID) { serial.Add(u, v, score(u, v)) })
	want := serial.Result()
	got := predictGlobal(g, 40, opt, score)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: parallel %+v, serial %+v", i, got[i], want[i])
		}
	}
}

// TestValidateOptionsRejectsNegativeWorkers covers the Workers < 0 guard.
func TestValidateOptionsRejectsNegativeWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Workers = -1 accepted")
		}
	}()
	opt := DefaultOptions()
	opt.Workers = -1
	CN.Predict(kite(), 3, opt)
}

// TestShardRangeCoversRange sanity-checks the sharding helper: every index
// visited exactly once, for degenerate and oversubscribed configurations.
// Chunks never overlap, so the concurrent counts writes are disjoint.
func TestShardRangeCoversRange(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {7, 1}, {100, 3}, {shardMin + 50, 4}, {1000, 16}, {5, 100},
	} {
		counts := make([]int32, tc.n)
		shardRange(Options{}, tc.n, tc.workers, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i]++
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: index %d visited %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}
