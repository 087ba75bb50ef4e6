package liveeval

import (
	"math"
	"sync"
	"testing"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
)

func pairs(ps ...[2]graph.NodeID) [][2]graph.NodeID { return ps }

// TestPrequentialDeterministicTrace drives a fully known trace through the
// engine and asserts the exact counters: two prediction epochs for one
// algorithm, ground-truth hits known in advance at known ranks.
func TestPrequentialDeterministicTrace(t *testing.T) {
	e := New(Config{TopK: 4, Ring: 4, Window: 8, HalfLife: 2})

	// Epoch 0: snapshot holds trace edges [0,5); prediction ranks
	// (1,2)=1, (3,4)=2, (5,6)=3, (7,8)=4.
	e.Record("CN", 0, 5, 5, pairs(
		[2]graph.NodeID{1, 2}, [2]graph.NodeID{3, 4}, [2]graph.NodeID{5, 6}, [2]graph.NodeID{7, 8}))

	// Edge 5: (3,4) — hit at rank 2.
	e.ObserveEdge(3, 4, 5)
	// Edge 6: (9,10) — miss.
	e.ObserveEdge(9, 10, 6)
	// Edge 7: (4,3) again (repeat pair, already hit) — miss: a pair
	// credits a set at most once.
	e.ObserveEdge(4, 3, 7)

	st, ok := e.Stats("CN")
	if !ok {
		t.Fatal("no stats for CN")
	}
	if st.Recorded != 1 || st.PredictedPairs != 4 {
		t.Fatalf("recorded=%d predicted=%d, want 1/4", st.Recorded, st.PredictedPairs)
	}
	if st.ScoredEdges != 3 || st.Hits != 1 {
		t.Fatalf("scored=%d hits=%d, want 3/1", st.ScoredEdges, st.Hits)
	}
	if want := (1.0 / 2.0) / 3.0; st.MRR != want {
		t.Fatalf("MRR=%v, want %v", st.MRR, want)
	}
	if want := 1.0 / 4.0; st.PrecisionAtK != want {
		t.Fatalf("precision@k=%v, want %v", st.PrecisionAtK, want)
	}
	if want := 1.0 / 3.0; st.WindowHitRate != want {
		t.Fatalf("window hit rate=%v, want %v", st.WindowHitRate, want)
	}
	// One hit at rank 2: AP = (1 hit at rank<=2)/2 = 0.5.
	if want := 0.5; st.WindowAUPR != want {
		t.Fatalf("window AUPR=%v, want %v", st.WindowAUPR, want)
	}
	// Decay: alpha = 1-2^(-1/2); three updates with indicators 1,0,0.
	alpha := 1 - math.Exp2(-1.0/2.0)
	decay := 0.0
	for _, ind := range []float64{1, 0, 0} {
		decay += alpha * (ind - decay)
	}
	if st.DecayedHitRate != decay {
		t.Fatalf("decayed hit rate=%v, want %v", st.DecayedHitRate, decay)
	}

	// Epoch 1: snapshot now holds [0,8); new prediction (5,6)=1, (9,10)=2.
	e.Record("CN", 1, 8, 8, pairs([2]graph.NodeID{5, 6}, [2]graph.NodeID{9, 10}))

	// Edge 8: (5,6) — hit at rank 1 against the NEWEST eligible set only
	// (it also sits at rank 3 of epoch 0, which must not be credited).
	e.ObserveEdge(5, 6, 8)
	st, _ = e.Stats("CN")
	if st.Hits != 2 || st.ScoredEdges != 4 {
		t.Fatalf("after epoch 1 hit: hits=%d scored=%d, want 2/4", st.Hits, st.ScoredEdges)
	}
	if want := (1.0/2.0 + 1.0/1.0) / 4.0; st.MRR != want {
		t.Fatalf("MRR=%v, want %v", st.MRR, want)
	}
	if want := 2.0 / 6.0; st.PrecisionAtK != want {
		t.Fatalf("precision@k=%v, want %v", st.PrecisionAtK, want)
	}
	// Window hits at ranks {2, 1}: AP = (1/1 + 2/2)/2 = 1.
	if want := 1.0; st.WindowAUPR != want {
		t.Fatalf("window AUPR=%v, want %v", st.WindowAUPR, want)
	}
}

// TestEpochBoundary pins the boundary rule: an edge whose trace index
// precedes the prediction's eligibility floor — because it is already part
// of the predicted-on snapshot, or because it was ingested before the
// prediction was recorded (same batch) — must not count, in either
// direction (no scored-edge increment, no hit).
func TestEpochBoundary(t *testing.T) {
	e := New(Config{TopK: 4, Ring: 4, Window: 8, HalfLife: 8})
	// Prediction computed on a 5-edge snapshot but recorded when the trace
	// had already grown to 7 edges: indices 5 and 6 arrived in the same
	// ingest batch as (or before) the recording and are ineligible.
	e.Record("AA", 3, 5, 7, pairs([2]graph.NodeID{1, 2}, [2]graph.NodeID{3, 4}))

	e.ObserveEdge(1, 2, 4) // inside snapshot
	e.ObserveEdge(1, 2, 5) // after snapshot, before recording
	e.ObserveEdge(3, 4, 6) // after snapshot, before recording
	if st, ok := e.Stats("AA"); !ok || st.ScoredEdges != 0 || st.Hits != 0 {
		t.Fatalf("pre-boundary edges scored: %+v", st)
	}

	e.ObserveEdge(1, 2, 7) // first eligible index
	st, _ := e.Stats("AA")
	if st.ScoredEdges != 1 || st.Hits != 1 {
		t.Fatalf("boundary edge: scored=%d hits=%d, want 1/1", st.ScoredEdges, st.Hits)
	}
}

// TestRingEvictionAndIdempotentRecord covers the bounded ring and the
// one-set-per-epoch rule.
func TestRingEvictionAndIdempotentRecord(t *testing.T) {
	e := New(Config{TopK: 2, Ring: 2, Window: 8, HalfLife: 8})
	e.Record("CN", 0, 0, 0, pairs([2]graph.NodeID{1, 2}))
	e.Record("CN", 0, 0, 3, pairs([2]graph.NodeID{8, 9})) // same epoch: no-op
	st, _ := e.Stats("CN")
	if st.Recorded != 1 || st.PredictedPairs != 1 {
		t.Fatalf("re-record changed the books: %+v", st)
	}

	e.Record("CN", 1, 2, 2, pairs([2]graph.NodeID{3, 4}))
	e.Record("CN", 2, 4, 4, pairs([2]graph.NodeID{5, 6})) // evicts epoch 0
	// (1,2) was only in the evicted epoch-0 set; the newest eligible set is
	// epoch 2, so this scores as a miss.
	e.ObserveEdge(1, 2, 9)
	st, _ = e.Stats("CN")
	if st.Hits != 0 || st.ScoredEdges != 1 {
		t.Fatalf("evicted set still credited: %+v", st)
	}
	// (5,6) hits the epoch-2 set.
	e.ObserveEdge(5, 6, 10)
	if st, _ = e.Stats("CN"); st.Hits != 1 {
		t.Fatalf("epoch-2 hit not credited: %+v", st)
	}
}

// TestTopKTruncation: pairs beyond Config.TopK are not retained.
func TestTopKTruncation(t *testing.T) {
	e := New(Config{TopK: 2, Ring: 2, Window: 8, HalfLife: 8})
	e.Record("CN", 0, 0, 0, pairs(
		[2]graph.NodeID{1, 2}, [2]graph.NodeID{3, 4}, [2]graph.NodeID{5, 6}))
	st, _ := e.Stats("CN")
	if st.PredictedPairs != 2 {
		t.Fatalf("predicted pairs=%d, want 2 (TopK)", st.PredictedPairs)
	}
	e.ObserveEdge(5, 6, 1) // rank 3 was truncated: miss
	if st, _ = e.Stats("CN"); st.Hits != 0 {
		t.Fatalf("truncated rank credited: %+v", st)
	}
}

// TestObsExport checks the per-algorithm counters and gauges the engine
// publishes through obs, including exposition-legal label syntax.
func TestObsExport(t *testing.T) {
	obs.Reset()
	obs.Enable(true)
	defer func() {
		obs.Enable(false)
		obs.Reset()
	}()
	e := New(Config{TopK: 4, Ring: 2, Window: 8, HalfLife: 4})
	e.Record("CN", 0, 1, 1, pairs([2]graph.NodeID{1, 2}))
	e.ObserveEdge(1, 2, 1)
	e.ObserveEdge(3, 4, 2)

	if got := obs.GetCounter(`liveeval/predictions_recorded{alg="CN"}`).Value(); got != 1 {
		t.Fatalf("predictions_recorded=%d, want 1", got)
	}
	if got := obs.GetCounter(`liveeval/edges_scored{alg="CN"}`).Value(); got != 2 {
		t.Fatalf("edges_scored=%d, want 2", got)
	}
	if got := obs.GetCounter(`liveeval/hits{alg="CN"}`).Value(); got != 1 {
		t.Fatalf("hits=%d, want 1", got)
	}
	// The gauges are computed at scrape time: every Snapshot reads the
	// engine's current stats.
	for i := 0; i < 2; i++ {
		st, _ := e.Stats("CN")
		g := obs.Snapshot().Gauges
		if got := g[`liveeval/hit_rate{alg="CN"}`]; got != st.DecayedHitRate {
			t.Fatalf("hit_rate gauge=%v, want %v", got, st.DecayedHitRate)
		}
		if got := g[`liveeval/mrr{alg="CN"}`]; got != st.MRR {
			t.Fatalf("mrr gauge=%v, want %v", got, st.MRR)
		}
		e.ObserveEdge(5, 6, 3)
	}
}

// TestObserveEdgeAllocs pins the per-edge cost of telemetry: with obs on,
// scoring an edge against three algorithms' sets records through held
// handles and allocates nothing.
func TestObserveEdgeAllocs(t *testing.T) {
	obs.Reset()
	obs.Enable(true)
	defer func() {
		obs.Enable(false)
		obs.Reset()
	}()
	e := New(Config{TopK: 128, Ring: 4, Window: 1024, HalfLife: 256})
	var ps [][2]graph.NodeID
	for i := 0; i < 128; i++ {
		ps = append(ps, [2]graph.NodeID{graph.NodeID(i), graph.NodeID(i + 500)})
	}
	for _, alg := range []string{"CN", "AA", "Katz"} {
		e.Record(alg, 0, 0, 0, ps)
	}
	// Fill the windows with misses (and register the gauges) first; the
	// measured edges then walk the predicted pairs, hits first.
	i := 0
	for ; i < 2048; i++ {
		e.ObserveEdge(graph.NodeID(1000+i%300), graph.NodeID(2000+i%300), i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		j := graph.NodeID(i % 256)
		e.ObserveEdge(j, j+500, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("ObserveEdge with telemetry on allocates %v per edge, want 0", allocs)
	}
	if st, _ := e.Stats("CN"); st.Hits != 128 {
		t.Fatalf("CN hits = %d, want all 128 predicted pairs", st.Hits)
	}
}

// TestConcurrentObserve exercises the engine under the race detector:
// concurrent Record and ObserveEdge must be safe, and the cumulative
// counters must account for every call exactly once.
func TestConcurrentObserve(t *testing.T) {
	e := New(Config{TopK: 8, Ring: 4, Window: 64, HalfLife: 16})
	e.Record("CN", 0, 0, 0, pairs([2]graph.NodeID{1, 2}, [2]graph.NodeID{3, 4}))
	var wg sync.WaitGroup
	const per = 100
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e.ObserveEdge(graph.NodeID(10+w), graph.NodeID(100+i), 1+w*per+i)
			}
		}(w)
	}
	wg.Wait()
	st, _ := e.Stats("CN")
	if st.ScoredEdges != 4*per {
		t.Fatalf("scored=%d, want %d", st.ScoredEdges, 4*per)
	}
}
