package predict

import (
	"math"
	"math/rand"
	"testing"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/snapcache"
)

// The pruned candidate engine's contract: Predict output is bit-identical
// to the per-pair intersection reference (oracle_test.go) for every local
// metric, worker count, and graph shape — pruning may only
// remove sources whose bound proves they cannot reach the top k. These
// tests force pruning on skewed graphs (the small fused_test fixtures fit
// in one batch and never prune) and pin the worker-invariant telemetry.

// pruneHubbyGraph builds a deterministic skewed graph: a handful of dense
// hubs wired to much of the node set plus a long low-degree tail — the
// shape where threshold pruning bites (tail bounds fall below the top-k
// floor set by hub candidates).
func pruneHubbyGraph(seed int64, n, hubs int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for h := 0; h < hubs; h++ {
		for v := hubs; v < n; v++ {
			if rng.Intn(3*(hubs-h)) == 0 {
				edges = append(edges, graph.Edge{U: graph.NodeID(h), V: graph.NodeID(v)})
			}
		}
	}
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{
			U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n)),
		})
	}
	return graph.Build(n, edges)
}

// hostileGraph glues together the adversarial shapes in one snapshot: a
// star whose center clears the hub-bitset degree floor, a clique (whose
// members have no 2-hop candidates among themselves), isolated nodes, and
// a few bridges between the regions.
func hostileGraph() *graph.Graph {
	const (
		leaves      = 200 // star: node 0 + leaves 1..200
		cliqueStart = 201
		cliqueEnd   = 221 // clique on 201..220
		isolatedEnd = 241 // 221..240 isolated
	)
	var edges []graph.Edge
	for v := 1; v <= leaves; v++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.NodeID(v)})
	}
	for u := cliqueStart; u < cliqueEnd; u++ {
		for v := u + 1; v < cliqueEnd; v++ {
			edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)})
		}
	}
	// Bridges: a few leaves into the clique, so the regions interact.
	for i := 0; i < 5; i++ {
		edges = append(edges, graph.Edge{U: graph.NodeID(1 + i), V: graph.NodeID(cliqueStart + i)})
	}
	return graph.Build(isolatedEnd, edges)
}

func pruneGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"hubby":   pruneHubbyGraph(1, 1500, 5),
		"hostile": hostileGraph(),
		"clique":  graph.Build(30, cliqueEdges(30)),
	}
}

func cliqueEdges(n int) []graph.Edge {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)})
		}
	}
	return edges
}

// TestPrunedPredictComplete is the candidate-set completeness property
// test: for all 12 local metrics, worker counts 1/2/4/7, a pruning k and a
// heap-never-fills k, the pruned Predict must equal the per-pair reference
// oracle bit for bit (pairs, order, float scores).
func TestPrunedPredictComplete(t *testing.T) {
	for name, g := range pruneGraphs() {
		for _, m := range fusedMetrics() {
			for _, k := range []int{15, 5000} {
				opt := DefaultOptions()
				opt.Workers = 1
				ref := m.referencePredict(g, k, opt)
				for _, w := range fusedWorkerCounts() {
					opt = DefaultOptions()
					opt.Workers = w
					got := m.Predict(g, k, opt)
					if len(got) != len(ref) {
						t.Errorf("%s/%s k=%d workers=%d: pruned %d pairs, reference %d",
							name, m.name, k, w, len(got), len(ref))
						continue
					}
					for i := range ref {
						if got[i] != ref[i] {
							t.Errorf("%s/%s k=%d workers=%d: rank %d pruned %+v, reference %+v",
								name, m.name, k, w, i, got[i], ref[i])
							break
						}
					}
				}
			}
		}
	}
}

// TestPrunedPredictActuallyPrunes guards the test above against vacuity:
// on the skewed fixture with a small k the engine must skip a substantial
// share of sources, for every metric with a non-trivial bound.
func TestPrunedPredictActuallyPrunes(t *testing.T) {
	g := pruneHubbyGraph(1, 1500, 5)
	for _, alg := range []Algorithm{CN, AA, RA, BCN, BAA, BRA} {
		withTelemetry(t, func() {
			opt := DefaultOptions()
			opt.Workers = 1
			alg.Predict(g, 15, opt)
			c, ok := obs.Snapshot().Counters["predict/"+alg.Name()+"/sources_pruned"]
			if !ok || c == 0 {
				t.Errorf("%s: no sources pruned on the skewed fixture (ok=%v)", alg.Name(), ok)
			} else if c < int64(g.NumNodes())/4 {
				t.Errorf("%s: only %d of %d sources pruned", alg.Name(), c, g.NumNodes())
			}
		})
	}
}

// TestPruneTelemetryWorkerInvariant pins the candidates_generated and
// sources_pruned counters: batch boundaries and merged floors depend only
// on (graph, k, seed), so the exact counts must be identical at workers 1
// and 4.
func TestPruneTelemetryWorkerInvariant(t *testing.T) {
	g := pruneHubbyGraph(2, 1500, 5)
	for _, alg := range []Algorithm{CN, AA} {
		counts := map[int][2]int64{}
		for _, workers := range []int{1, 4} {
			withTelemetry(t, func() {
				opt := DefaultOptions()
				opt.Workers = workers
				alg.Predict(g, 15, opt)
				d := obs.Snapshot()
				counts[workers] = [2]int64{
					d.Counters["predict/"+alg.Name()+"/candidates_generated"],
					d.Counters["predict/"+alg.Name()+"/sources_pruned"],
				}
			})
		}
		if counts[1] != counts[4] {
			t.Errorf("%s: counters differ across worker counts: workers=1 %v, workers=4 %v",
				alg.Name(), counts[1], counts[4])
		}
		if counts[1][0] == 0 || counts[1][1] == 0 {
			t.Errorf("%s: degenerate counts %v — fixture exercises no pruning", alg.Name(), counts[1])
		}
	}
}

// TestWorkerClampKeepsTinySweepsSerial covers the small-graph regression
// fix: a sweep whose estimated wedge work is under the per-worker floor
// must not fan out even when Options.Workers asks for parallelism, and the
// clamped run's output must be bit-identical to the serial one.
func TestWorkerClampKeepsTinySweepsSerial(t *testing.T) {
	g := randomGraph(5, 80, 200)
	if w := wedgeWork(g); w >= minSweepWork {
		t.Fatalf("fixture too large to test the clamp: wedge work %d", w)
	}
	for _, alg := range []Algorithm{CN, JC, AA} {
		opt := DefaultOptions()
		opt.Workers = 1
		want := alg.Predict(g, 30, opt)
		var got []Pair
		withTelemetry(t, func() {
			opt.Workers = 4
			got = alg.Predict(g, 30, opt)
			if c := obs.Snapshot().Counters["engine/shard_fanouts"]; c != 0 {
				t.Errorf("%s: %d shard fanouts on a sub-threshold sweep at Workers=4", alg.Name(), c)
			}
		})
		if len(got) != len(want) {
			t.Fatalf("%s: clamped run returned %d pairs, serial %d", alg.Name(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: rank %d clamped %+v, serial %+v", alg.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestScorePairsHubProbesMatchReference drives the bitset probe path in
// scorePairsFused with a duplicate-heavy batch against a hub source: many
// repeated, reversed, self, and connected queries whose group cost makes
// probing cheaper than sweeping. Scores must equal the per-pair reference
// bit for bit at every worker count.
func TestScorePairsHubProbesMatchReference(t *testing.T) {
	g := hostileGraph() // node 0 is a 200-leaf star center, over the hub floor
	if snapcache.For(g).CSRView().Hubs == 0 {
		t.Fatal("fixture has no hub rows; probe path unreachable")
	}
	var pairs []Pair
	for i := 0; i < 40; i++ {
		pairs = append(pairs,
			Pair{U: 0, V: graph.NodeID(1 + i%7)},           // duplicate-heavy hub source, connected targets
			Pair{U: 0, V: graph.NodeID(205 + i%3)},         // hub source, clique targets
			Pair{U: graph.NodeID(1 + i%5), V: 0},           // reversed: low-degree source, hub target
			Pair{U: 0, V: 0},                               // self pair on the hub
			Pair{U: graph.NodeID(225), V: graph.NodeID(3)}, // isolated source
		)
	}
	for _, m := range fusedMetrics() {
		opt := DefaultOptions()
		opt.Workers = 1
		want := m.referenceScorePairs(g, pairs, opt)
		for _, w := range fusedWorkerCounts() {
			opt.Workers = w
			got := m.ScorePairs(g, pairs, opt)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s workers=%d: score[%d] = %v, reference %v (pair %+v)",
						m.name, w, i, got[i], want[i], pairs[i])
					break
				}
			}
		}
	}
}

// TestNaiveBayesHubProbesMatchBruteForce pins the bitset-accelerated
// triangle statistics against an independent per-edge enumeration: same
// per-node triangle counts, hence bit-identical role ratios, at workers 1
// and 4.
func TestNaiveBayesHubProbesMatchBruteForce(t *testing.T) {
	g := pruneHubbyGraph(3, 900, 4)
	if snapcache.For(g).CSRView().Hubs == 0 {
		t.Fatal("fixture has no hub rows; probe path unreachable")
	}
	n := g.NumNodes()
	tri := make([]int64, n)
	for u := 0; u < n; u++ {
		uid := graph.NodeID(u)
		for _, v := range g.Neighbors(uid) {
			if v <= uid {
				continue
			}
			for _, w := range g.CommonNeighbors(uid, v) {
				if w > v { // count each triangle once, at its smallest edge
					tri[uid]++
					tri[v]++
					tri[w]++
				}
			}
		}
	}
	for _, workers := range []int{1, 4} {
		opt := DefaultOptions()
		opt.Workers = workers
		nb := newNaiveBayes(g, opt)
		for w := 0; w < n; w++ {
			deg := int64(g.Degree(graph.NodeID(w)))
			open := deg*(deg-1)/2 - tri[w]
			if open < 0 {
				open = 0
			}
			want := math.Log(float64(tri[w]+1) / float64(open+1))
			if nb.logR[w] != want {
				t.Fatalf("workers=%d: logR[%d] = %v, brute force %v (tri=%d)", workers, w, nb.logR[w], want, tri[w])
			}
		}
	}
}

// TestPrunedPredictSmallK exercises degenerate selector sizes through the
// pruned engine (k smaller than the first batch floor interplay, k = 1,
// and k = 0, which must return an empty, non-panicking result).
func TestPrunedPredictSmallK(t *testing.T) {
	g := pruneHubbyGraph(4, 800, 4)
	for _, k := range []int{0, 1, 3} {
		for _, m := range fusedMetrics() {
			opt := DefaultOptions()
			opt.Workers = 2
			want := m.referencePredict(g, k, opt)
			got := m.Predict(g, k, opt)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: pruned %d pairs, reference %d", m.name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d: rank %d pruned %+v, reference %+v", m.name, k, i, got[i], want[i])
				}
			}
		}
	}
}
