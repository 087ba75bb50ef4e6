package predict

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"linkpred/internal/graph"
)

// partitionBounds mirrors the serving layer's static shard configuration: a
// contiguous equal-count cover of [0, n) with an open-ended last shard.
func partitionBounds(n, shards int) [][2]graph.NodeID {
	out := make([][2]graph.NodeID, shards)
	for s := 0; s < shards; s++ {
		out[s] = [2]graph.NodeID{graph.NodeID(s * n / shards), graph.NodeID((s + 1) * n / shards)}
	}
	out[shards-1][1] = 1 << 30
	return out
}

// TestPartitionedPredictEquivalence is the memory-sharding half of the
// distributed-correctness contract: for every partition-safe algorithm,
// running Predict on each shard's PartitionView (no explicit SourceRange —
// the view's owned range is the default) and merging is bit-identical to
// the unrestricted full-snapshot sweep, for shard counts {1, 2, 3, 5, 8} at
// per-shard worker counts {1, 4}. Partition-unsafe algorithms must panic on
// a partitioned snapshot instead of silently mis-scoring.
func TestPartitionedPredictEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"kite":   kite(),
		"random": randomGraph(42, 400, 1600),
	}
	const k = 25
	for gname, g := range graphs {
		n := g.NumNodes()
		views := map[int][]*graph.Graph{}
		for _, shards := range []int{1, 2, 3, 5, 8} {
			for _, b := range partitionBounds(n, shards) {
				views[shards] = append(views[shards], graph.PartitionView(g, b[0], b[1]))
			}
		}
		for _, alg := range registry {
			alg := alg
			t.Run(fmt.Sprintf("%s/%s", gname, alg.Name()), func(t *testing.T) {
				if !PartitionSafe(alg.Name()) {
					assertPanics(t, "Predict on partitioned snapshot", func() {
						alg.Predict(views[2][0], k, DefaultOptions())
					})
					return
				}
				for _, workers := range []int{1, 4} {
					opt := DefaultOptions()
					opt.Workers = workers
					want := alg.Predict(g, k, opt)
					for _, shards := range []int{1, 2, 3, 5, 8} {
						parts := make([][]Pair, shards)
						for s, pv := range views[shards] {
							parts[s] = alg.Predict(pv, k, opt)
							// Each shard's partial must equal the full
							// snapshot's sweep over the same source range.
							o := opt
							r := SourceRange{Lo: s * n / shards, Hi: (s + 1) * n / shards}
							if s == shards-1 {
								r.Hi = n
							}
							o.SourceRange = &r
							assertSamePairs(t, alg.Predict(g, k, o), parts[s],
								fmt.Sprintf("shard %d of %d, %d workers", s, shards, workers))
						}
						assertSamePairs(t, want, MergeTopK(parts, k, opt.Seed),
							fmt.Sprintf("merged, %d shards x %d workers", shards, workers))
					}
				}
			})
		}
	}
}

// TestPartitionedStreamingBuilderPredict closes the loop on the serving
// path's representation: snapshots emitted by the streaming partitioned
// builder (which keeps a slightly different — superset — frontier than the
// offline view) produce the same bit-identical merged top-k.
func TestPartitionedStreamingBuilderPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n, m := 250, 1100
	arr := make([]int64, n)
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v, Time: 1})
		if rng.Intn(5) == 0 {
			edges = append(edges, graph.Edge{U: v, V: u, Time: 1}) // duplicate
		}
	}
	tr := &graph.Trace{Name: "p", Arrival: arr, Edges: edges}
	full := tr.SnapshotAtEdge(len(edges))
	const k = 25
	const shards = 4
	for _, alg := range []Algorithm{CN, JC, AA, RA, PA, Salton, LHN} {
		opt := DefaultOptions()
		opt.Workers = 2
		want := alg.Predict(full, k, opt)
		parts := make([][]Pair, shards)
		for s, b := range partitionBounds(n, shards) {
			pb := graph.NewPartitionedBuilder(tr, b[0], b[1])
			// Two-step publish to exercise the delta path, not just a bulk load.
			pb.AtEdge(len(edges) / 2)
			parts[s] = alg.Predict(pb.AtEdge(len(edges)), k, opt)
		}
		assertSamePairs(t, want, MergeTopK(parts, k, opt.Seed),
			fmt.Sprintf("%s streaming-partitioned, %d shards", alg.Name(), shards))
	}
}

// TestPartitionedScorePairs: batch scoring on a partitioned snapshot is
// bit-identical to the full snapshot for owned pairs — in either endpoint
// order, including connected pairs — and panics on unowned pairs.
func TestPartitionedScorePairs(t *testing.T) {
	g := randomGraph(13, 300, 1400)
	n := g.NumNodes()
	lo, hi := graph.NodeID(n/4), graph.NodeID(3*n/4)
	pv := graph.PartitionView(g, lo, hi)
	rng := rand.New(rand.NewSource(4))
	var pairs []Pair
	for len(pairs) < 300 {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		m := u
		if v < u {
			m = v
		}
		if m < lo || m >= hi {
			continue
		}
		pairs = append(pairs, Pair{U: u, V: v}) // both orders occur naturally
	}
	// Connected pairs from owned rows: scoring them is defined (the
	// reference scores any pair), so the partition must match there too.
	for u := lo; u < hi && len(pairs) < 340; u++ {
		for _, v := range g.Neighbors(u) {
			if v > u {
				pairs = append(pairs, Pair{U: v, V: u})
				break
			}
		}
	}
	for _, alg := range []Algorithm{CN, JC, AA, RA, PA, Salton, Sorensen, HPI, HDI, LHN} {
		for _, workers := range []int{1, 4} {
			opt := DefaultOptions()
			opt.Workers = workers
			want := alg.ScorePairs(g, pairs, opt)
			got := alg.ScorePairs(pv, pairs, opt)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s workers=%d: pair %d (%d,%d): got %v, want %v",
						alg.Name(), workers, i, pairs[i].U, pairs[i].V, got[i], want[i])
				}
			}
		}
	}
	assertPanics(t, "ScorePairs with unowned pair", func() {
		CN.ScorePairs(pv, []Pair{{U: 0, V: 1}}, DefaultOptions())
	})
	assertPanics(t, "BCN ScorePairs on partition", func() {
		BCN.ScorePairs(pv, pairs[:1], DefaultOptions())
	})
}

// TestResolvePartition pins the SourceRange/partition reconciliation rules.
func TestResolvePartition(t *testing.T) {
	g := randomGraph(2, 100, 300)
	pv := graph.PartitionView(g, 20, 60)
	// nil defaults to the owned range.
	got := resolvePartition(pv, DefaultOptions())
	if got.SourceRange == nil || got.SourceRange.Lo != 20 || got.SourceRange.Hi != 60 {
		t.Fatalf("nil SourceRange resolved to %+v", got.SourceRange)
	}
	// A sub-range of the owned range passes through.
	opt := DefaultOptions()
	opt.SourceRange = &SourceRange{Lo: 25, Hi: 40}
	got = resolvePartition(pv, opt)
	if got.SourceRange.Lo != 25 || got.SourceRange.Hi != 40 {
		t.Fatalf("sub-range resolved to %+v", got.SourceRange)
	}
	// Reaching outside the owned range panics.
	assertPanics(t, "SourceRange outside owned range", func() {
		opt := DefaultOptions()
		opt.SourceRange = &SourceRange{Lo: 0, Hi: 60}
		resolvePartition(pv, opt)
	})
	// Full snapshots pass through untouched.
	opt = DefaultOptions()
	if r := resolvePartition(g, opt); r.SourceRange != nil {
		t.Fatalf("full snapshot grew a SourceRange: %+v", r.SourceRange)
	}
}

func assertPanics(t *testing.T, label string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	f()
}

// TestCostModelRanges pins the kernel-aware split invariants: every model
// yields a contiguous disjoint cover, CostWedge reproduces the historical
// WeightedSourceRanges boundaries exactly, and merge exactness holds on
// boundaries chosen by any model (ownership does not care where the
// boundaries sit).
func TestCostModelRanges(t *testing.T) {
	g := randomGraph(21, 300, 1500)
	n := g.NumNodes()
	models := []CostModel{CostWedge, CostCappedWedge, CostRows}
	for _, model := range models {
		for _, shards := range []int{1, 2, 3, 7, 16} {
			ranges := WeightedSourceRangesFor(g, shards, model)
			prev := 0
			for s, r := range ranges {
				if r.Lo != prev || r.Hi < r.Lo {
					t.Fatalf("model=%d shards=%d: shard %d range [%d,%d) breaks cover at %d",
						model, shards, s, r.Lo, r.Hi, prev)
				}
				prev = r.Hi
			}
			if prev != n {
				t.Fatalf("model=%d shards=%d: cover ends at %d, want %d", model, shards, prev, n)
			}
		}
	}
	for s, r := range WeightedSourceRanges(g, 4) {
		if WeightedSourceRangesFor(g, 4, CostWedge)[s] != r {
			t.Fatal("WeightedSourceRanges diverged from CostWedge")
		}
	}
	const k = 20
	for _, alg := range []Algorithm{BCN, BAA, LRW} {
		model := CostModelFor(alg.Name())
		opt := DefaultOptions()
		want := alg.Predict(g, k, opt)
		parts := make([][]Pair, 3)
		for s, r := range WeightedSourceRangesFor(g, 3, model) {
			o := opt
			r := r
			o.SourceRange = &r
			parts[s] = alg.Predict(g, k, o)
		}
		assertSamePairs(t, want, MergeTopK(parts, k, opt.Seed),
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

// TestPartitionSafeRegistry: the safe set is exactly the symmetric local
// family whose scores are functions of owned rows, frontier suffixes, and
// global degrees. Every registry row must be listed, safe or not.
func TestPartitionSafeRegistry(t *testing.T) {
	safe := map[string]bool{
		"CN": true, "JC": true, "AA": true, "RA": true, "PA": true,
		"Salton": true, "Sorensen": true, "HPI": true, "HDI": true, "LHN": true,
		"BCN": false, "BAA": false, "BRA": false, "SP": false, "LP": false, "PPR": false, "LRW": false,
		"SRW": false, "Katz": false, "KatzSC": false, "KatzExact": false, "Rescal": false,
	}
	for _, alg := range registry {
		want, ok := safe[alg.Name()]
		if !ok {
			t.Errorf("registry row %q is missing from this table", alg.Name())
		}
		if PartitionSafe(alg.Name()) != want {
			t.Errorf("PartitionSafe(%q) = %v, want %v", alg.Name(), PartitionSafe(alg.Name()), want)
		}
	}
	if PartitionSafe("nonsense") {
		t.Error("an unknown name is partition-safe")
	}
}

// TestUnsafeRowsRefusePartitions drives the flag through both entry points:
// a row with it unset refuses a partitioned snapshot with the full-snapshot
// message from Predict and from ScorePairs alike (before touching a row the
// partition dropped), and a row with it set answers both.
func TestUnsafeRowsRefusePartitions(t *testing.T) {
	pv := graph.PartitionView(randomGraph(42, 400, 1600), 100, 200)
	pairs := []Pair{{U: 120, V: 300}, {U: 150, V: 160}}
	refusal := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	for _, alg := range registry {
		calls := map[string]func(){
			"Predict":    func() { alg.Predict(pv, 10, DefaultOptions()) },
			"ScorePairs": func() { alg.ScorePairs(pv, pairs, DefaultOptions()) },
		}
		for op, call := range calls {
			msg := refusal(call)
			switch {
			case PartitionSafe(alg.Name()) && msg != "":
				t.Errorf("%s.%s on a partition panicked: %s", alg.Name(), op, msg)
			case !PartitionSafe(alg.Name()) && !strings.Contains(msg, alg.Name()+" requires a full snapshot"):
				t.Errorf("%s.%s on a partition: panic %q, want the full-snapshot refusal", alg.Name(), op, msg)
			}
		}
	}
}
