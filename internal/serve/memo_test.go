package serve

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/liveeval"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
)

// countingAlg wraps a real algorithm and counts the top-k sweeps that reach
// it, so a test can tell a memo hit from a sweep; lastK is the depth of the
// latest one.
type countingAlg struct {
	predict.Algorithm
	calls atomic.Int64
	lastK atomic.Int64
}

func (c *countingAlg) Predict(g *graph.Graph, k int, opt predict.Options) []predict.Pair {
	c.calls.Add(1)
	c.lastK.Store(int64(k))
	return c.Algorithm.Predict(g, k, opt)
}

// memoServer starts a server whose CN, AA and PA resolve to counting
// wrappers.
func memoServer(t *testing.T, cfg Config) (*Server, map[string]*countingAlg) {
	t.Helper()
	counted := map[string]*countingAlg{"CN": {Algorithm: predict.CN}, "AA": {Algorithm: predict.AA}, "PA": {Algorithm: predict.PA}}
	cfg.SnapshotEvery = 1 << 20
	cfg.Resolve = func(name string) (predict.Algorithm, error) {
		if c, ok := counted[name]; ok {
			return c, nil
		}
		return predict.ByName(name)
	}
	return newTestServer(t, cfg), counted
}

// requireOffline asserts res is byte for byte the offline sweep of alg at k
// on snap, restricted to srange when it is non-nil (with the dense IDs and
// shard range a sharded response carries).
func requireOffline(t *testing.T, s *Server, res *Result, snap *Snapshot, alg string, k int, srange *predict.SourceRange) {
	t.Helper()
	opt := s.cfg.Opt
	opt.SourceRange = srange
	want := mustAlg(t, alg).Predict(snap.Graph, k, opt)
	if res.SnapshotSeq != snap.Seq {
		t.Fatalf("%s k=%d: answered on seq %d, want %d", alg, k, res.SnapshotSeq, snap.Seq)
	}
	if len(res.Pairs) != len(want) {
		t.Fatalf("%s k=%d: %d pairs, offline %d", alg, k, len(res.Pairs), len(want))
	}
	ext := s.led.Externals()
	for i, w := range want {
		got := res.Pairs[i]
		if got.U != ext[w.U] || got.V != ext[w.V] || math.Float64bits(got.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s k=%d rank %d: served %+v, offline %+v", alg, k, i, got, w)
		}
		if srange != nil && (got.DU != w.U || got.DV != w.V) {
			t.Fatalf("%s k=%d rank %d: dense (%d,%d), offline (%d,%d)", alg, k, i, got.DU, got.DV, w.U, w.V)
		}
	}
	if srange != nil {
		if res.ShardRange == nil || *res.ShardRange != [2]int{srange.Lo, srange.Hi} {
			t.Fatalf("%s k=%d: shard_range %v, want [%d %d]", alg, k, res.ShardRange, srange.Lo, srange.Hi)
		}
		if res.SnapshotNodes != snap.Graph.NumNodes() {
			t.Fatalf("%s k=%d: snapshot_nodes %d, want %d", alg, k, res.SnapshotNodes, snap.Graph.NumNodes())
		}
	}
}

func memoHitCount() int64 { return obs.GetCounter("serve/predict_memo_hits").Value() }

func enableObs(t *testing.T) {
	obs.Reset()
	obs.Enable(true)
	t.Cleanup(func() {
		obs.Enable(false)
		obs.Reset()
	})
}

// TestMemoHitAfterSweep: once a key has been swept on a snapshot, any k up
// to the swept depth is answered from the memo — the wrapped algorithm is
// not called again — and the answer is the offline sweep at that k. A
// deeper k sweeps once more and then covers the shallower ones.
func TestMemoHitAfterSweep(t *testing.T) {
	enableObs(t)
	s, counted := memoServer(t, Config{Workers: 2})
	if _, _, err := s.Ingest(traceEvents(testTrace(t))); err != nil {
		t.Fatal(err)
	}
	snap := s.Flush()
	cn := counted["CN"]
	steps := []struct {
		k         int
		wantCalls int64
		wantHits  int64
	}{
		{20, 1, 0}, // the first ask sweeps
		{20, 1, 1}, // the same k is a hit
		{7, 1, 2},  // a shallower k is a prefix
		{40, 2, 2}, // a deeper k sweeps again ...
		{33, 2, 3}, // ... and is then the stored depth
		{20, 2, 4},
	}
	for _, st := range steps {
		res, err := s.Predict(context.Background(), "CN", st.k)
		if err != nil {
			t.Fatal(err)
		}
		requireOffline(t, s, res, snap, "CN", st.k, nil)
		if got := cn.calls.Load(); got != st.wantCalls {
			t.Fatalf("k=%d: CN swept %d times, want %d", st.k, got, st.wantCalls)
		}
		if got := memoHitCount(); got != st.wantHits {
			t.Fatalf("k=%d: serve/predict_memo_hits = %d, want %d", st.k, got, st.wantHits)
		}
	}
	// An exhausted list answers every k: the fixture has fewer candidate
	// pairs than a billion, so the second ask is a hit.
	calls := cn.calls.Load()
	for _, k := range []int{1 << 30, 1 << 29} {
		res, err := s.Predict(context.Background(), "CN", k)
		if err != nil {
			t.Fatal(err)
		}
		requireOffline(t, s, res, snap, "CN", k, nil)
	}
	if got := cn.calls.Load(); got != calls+1 {
		t.Fatalf("exhausted list: CN swept %d more times, want 1", got-calls)
	}
}

// TestMemoDroppedOnPublish: after ingest plus Flush, the next answer is an
// offline sweep of the new snapshot, not the old snapshot's list. The miss
// sweeps at the largest k asked on the previous snapshot, so a later ask up
// to that depth on the new snapshot is a hit.
func TestMemoDroppedOnPublish(t *testing.T) {
	enableObs(t)
	s, counted := memoServer(t, Config{Workers: 2})
	events := traceEvents(testTrace(t))
	half := len(events) / 2
	if _, _, err := s.Ingest(events[:half]); err != nil {
		t.Fatal(err)
	}
	snap1 := s.Flush()
	for _, k := range []int{30, 10} {
		res, err := s.Predict(context.Background(), "AA", k)
		if err != nil {
			t.Fatal(err)
		}
		requireOffline(t, s, res, snap1, "AA", k, nil)
	}
	if _, _, err := s.Ingest(events[half:]); err != nil {
		t.Fatal(err)
	}
	snap2 := s.Flush()
	if snap2.Seq == snap1.Seq {
		t.Fatal("flush did not publish")
	}
	aa := counted["AA"]
	before := aa.calls.Load()
	for _, k := range []int{10, 30} {
		res, err := s.Predict(context.Background(), "AA", k)
		if err != nil {
			t.Fatal(err)
		}
		requireOffline(t, s, res, snap2, "AA", k, nil)
	}
	if got := aa.calls.Load() - before; got != 1 {
		t.Fatalf("new snapshot: AA swept %d times for k=10 then k=30, want 1 (carried k=30)", got)
	}
}

// TestMemoNeverStoresDegradedOrCut: a sweep cut short by its deadline is
// not stored, so the next ask sweeps; degraded requests neither read nor
// fill the memo, so a plain ask of the proxy after them still sweeps.
func TestMemoNeverStoresDegradedOrCut(t *testing.T) {
	t.Run("deadline", func(t *testing.T) {
		sweeps := &countingAlg{Algorithm: &chunkAlg{chunk: 5 * time.Millisecond, chunks: 20}}
		s := newTestServer(t, Config{Workers: 1, Resolve: func(string) (predict.Algorithm, error) { return sweeps, nil }})
		if _, _, err := s.Ingest([]Event{{U: 0, V: 1, T: 1}}); err != nil { // chunkAlg answers (0, 1)
			t.Fatal(err)
		}
		s.Flush()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
		defer cancel()
		if _, err := s.Predict(ctx, "Chunky", 5); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cut sweep: err = %v, want DeadlineExceeded", err)
		}
		if _, err := s.Predict(context.Background(), "Chunky", 5); err != nil {
			t.Fatal(err)
		}
		if got := sweeps.calls.Load(); got != 2 {
			t.Fatalf("after a cut sweep the next ask swept %d times in all, want 2", got)
		}
		if _, err := s.Predict(context.Background(), "Chunky", 5); err != nil {
			t.Fatal(err)
		}
		if got := sweeps.calls.Load(); got != 2 {
			t.Fatalf("a completed sweep was not stored: %d sweeps, want 2", got)
		}
	})
	t.Run("degraded", func(t *testing.T) {
		enableObs(t)
		s, counted := memoServer(t, Config{
			Workers: 1,
			// Every sweep trips the controller and it never recovers.
			Degrade: DegradeConfig{P95: time.Nanosecond, Window: 1, RecoverAfter: 1 << 20},
		})
		if _, _, err := s.Ingest(traceEvents(testTrace(t))); err != nil {
			t.Fatal(err)
		}
		snap := s.Flush()
		if _, err := s.Predict(context.Background(), "CN", 5); err != nil { // trip it
			t.Fatal(err)
		}
		aa := counted["AA"]
		for i := 1; i <= 3; i++ {
			res, err := s.Predict(context.Background(), "Katz", 10)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Degraded || res.ServedBy != "AA" {
				t.Fatalf("served_by=%s degraded=%v, want AA/true", res.ServedBy, res.Degraded)
			}
			requireOffline(t, s, res, snap, "AA", 10, nil)
			if got := aa.calls.Load(); got != int64(i) {
				t.Fatalf("degraded ask %d: AA swept %d times; a degraded request read the memo", i, got)
			}
		}
		res, err := s.Predict(context.Background(), "AA", 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded {
			t.Fatal("a plain AA ask was flagged degraded")
		}
		if got := aa.calls.Load(); got != 4 {
			t.Fatalf("plain AA after degraded asks: %d sweeps, want 4; a degraded answer was stored", got)
		}
		if hits := memoHitCount(); hits != 0 {
			t.Fatalf("serve/predict_memo_hits = %d, want 0", hits)
		}
	})
}

// TestMemoHitRecordedInLiveEval: a hit is rendered like a sweep, so
// liveeval receives it under the served algorithm and epoch. liveeval keeps
// one prediction set per (algorithm, epoch), so the hits on an epoch leave
// its statistics exactly where an independent client-side simulation that
// records every response puts them, and predictions_recorded advances once
// per epoch answered.
func TestMemoHitRecordedInLiveEval(t *testing.T) {
	enableObs(t)
	const topK = 50
	eval := liveeval.New(liveeval.Config{TopK: topK, Ring: 4, Window: 256, HalfLife: 64})
	s, _ := memoServer(t, Config{Workers: 2, Eval: eval})
	events := traceEvents(testTrace(t))
	sim := newPrequentialSim(topK, 4)
	ingested := 0
	ingest := func(evs []Event) {
		if _, _, err := s.Ingest(evs); err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			sim.observe(ev.U, ev.V, ingested)
			ingested++
		}
	}
	ask := func(k int) {
		res, err := s.Predict(context.Background(), "CN", k)
		if err != nil {
			t.Fatal(err)
		}
		sim.record(res.ServedBy, res.SnapshotSeq, res.SnapshotEdges, ingested, res.Pairs)
	}
	half, threeQ := len(events)/2, len(events)*3/4
	ingest(events[:half])
	s.Flush()
	ask(topK) // sweep
	ask(20)   // hit
	ingest(events[half:threeQ])
	ask(30) // hit on the same epoch, after more edges arrived
	s.Flush()
	ask(10) // sweep at the carried k
	ask(topK)
	ingest(events[threeQ:])

	if got := memoHitCount(); got != 3 {
		t.Fatalf("serve/predict_memo_hits = %d, want 3", got)
	}
	st, want := eval.All()["CN"], sim.stats["CN"]
	if st.Recorded != want.recorded || st.PredictedPairs != want.predicted ||
		st.ScoredEdges != want.scored || st.Hits != want.hits {
		t.Fatalf("liveeval CN: recorded=%d predicted=%d scored=%d hits=%d; sim %+v",
			st.Recorded, st.PredictedPairs, st.ScoredEdges, st.Hits, *want)
	}
	if got := obs.GetCounter(`liveeval/predictions_recorded{alg="CN"}`).Value(); got != 2 {
		t.Fatalf("liveeval/predictions_recorded = %d, want 2 (one per epoch)", got)
	}
	if want.hits == 0 {
		t.Fatal("no prequential hits; the fixture no longer exercises the loop")
	}
}

// TestMemoShardedHit: a shard-restricted hit carries the same shard_range,
// snapshot_nodes and dense IDs as the sweep it reuses, for every shard of a
// cover, and never leaks into the unrestricted key.
func TestMemoShardedHit(t *testing.T) {
	enableObs(t)
	s, counted := memoServer(t, Config{Workers: 2})
	if _, _, err := s.Ingest(traceEvents(testTrace(t))); err != nil {
		t.Fatal(err)
	}
	snap := s.Flush()
	const shards = 3
	for shard := 0; shard < shards; shard++ {
		sr := predict.WeightedSourceRangeFor(snap.Graph, shard, shards, predict.CostModelFor("CN"))
		for _, k := range []int{25, 25, 9} {
			res, err := s.PredictShard(context.Background(), "CN", k, shard, shards)
			if err != nil {
				t.Fatal(err)
			}
			requireOffline(t, s, res, snap, "CN", k, &sr)
		}
	}
	if got := counted["CN"].calls.Load(); got != shards {
		t.Fatalf("CN swept %d times for %d shards, want one each", got, shards)
	}
	res, err := s.Predict(context.Background(), "CN", 9)
	if err != nil {
		t.Fatal(err)
	}
	requireOffline(t, s, res, snap, "CN", 9, nil)
	if res.ShardRange != nil || counted["CN"].calls.Load() != shards+1 {
		t.Fatalf("unrestricted ask after sharded ones: shard_range %v, %d sweeps", res.ShardRange, counted["CN"].calls.Load())
	}
}

// gatedAlg blocks every sweep until its gate opens, counting sweeps.
type gatedAlg struct {
	predict.Algorithm
	calls   atomic.Int64
	entered chan struct{}
	gate    chan struct{}
}

func (a *gatedAlg) Predict(g *graph.Graph, k int, opt predict.Options) []predict.Pair {
	a.calls.Add(1)
	select {
	case a.entered <- struct{}{}:
	default:
	}
	<-a.gate
	return a.Algorithm.Predict(g, k, opt)
}

// TestMemoConcurrentMissesRace runs under -race in CI. Part one: concurrent
// misses on one key each sweep, every answer is exact, and the deepest list
// is the one kept, whatever order the sweeps finish in. Part two: readers
// race a publisher; every answer must be the offline sweep of the snapshot
// it reports.
func TestMemoConcurrentMissesRace(t *testing.T) {
	enableObs(t)
	var mu sync.Mutex
	snaps := map[int64]*Snapshot{}
	gated := &gatedAlg{Algorithm: predict.RA, entered: make(chan struct{}, 4), gate: make(chan struct{})}
	s := newTestServer(t, Config{
		SnapshotEvery: 1 << 20,
		Workers:       4,
		Resolve: func(name string) (predict.Algorithm, error) {
			if name == "RA" {
				return gated, nil
			}
			return predict.ByName(name)
		},
		OnPublish: func(snap *Snapshot) {
			mu.Lock()
			snaps[snap.Seq] = snap
			mu.Unlock()
		},
	})
	events := traceEvents(testTrace(t))
	half := len(events) / 2
	if _, _, err := s.Ingest(events[:half]); err != nil {
		t.Fatal(err)
	}
	snap := s.Flush()

	ks := []int{20, 5, 15, 10}
	results := make(chan *Result, len(ks))
	for _, k := range ks {
		go func(k int) {
			res, err := s.Predict(context.Background(), "RA", k)
			if err != nil {
				t.Error(err)
			}
			results <- res
		}(k)
	}
	for range ks { // every miss is sweeping before any finishes
		<-gated.entered
	}
	close(gated.gate)
	for range ks {
		if res := <-results; res != nil {
			requireOffline(t, s, res, snap, "RA", len(res.Pairs), nil)
		}
	}
	if got := gated.calls.Load(); got != int64(len(ks)) {
		t.Fatalf("%d concurrent misses swept %d times, want one each", len(ks), got)
	}
	res, err := s.Predict(context.Background(), "RA", 20)
	if err != nil {
		t.Fatal(err)
	}
	requireOffline(t, s, res, snap, "RA", 20, nil)
	if got := gated.calls.Load(); got != int64(len(ks)) {
		t.Fatalf("k=20 after the concurrent sweeps swept again: the deepest list was not kept")
	}

	const readers, asks = 4, 24
	type answer struct {
		alg string
		k   int
		res *Result
	}
	answers := make(chan answer, readers*asks)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < asks; i++ {
				alg := []string{"CN", "RA", "Katz"}[(r+i)%3]
				k := 5 + (r*7+i*3)%30
				res, err := s.Predict(context.Background(), alg, k)
				if err != nil {
					t.Error(err)
					return
				}
				answers <- answer{alg, k, res}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := half; i < len(events); i += 100 {
			if _, _, err := s.Ingest(events[i:min(i+100, len(events))]); err != nil {
				t.Error(err)
			}
			s.Flush()
		}
	}()
	wg.Wait()
	close(answers)
	for a := range answers {
		mu.Lock()
		snap := snaps[a.res.SnapshotSeq]
		mu.Unlock()
		if snap == nil {
			t.Fatalf("answer on unknown seq %d", a.res.SnapshotSeq)
		}
		requireOffline(t, s, a.res, snap, a.alg, a.k, nil)
	}
}

// TestMemoBudgetBoundsRetainedHeap: k = 2·10⁹ on many (shard, shards) keys
// serves every candidate, but the memo keeps only what fits its budget, so
// the heap the server retains after GC stays under a fixed ceiling however
// many keys a client asks for.
func TestMemoBudgetBoundsRetainedHeap(t *testing.T) {
	s, _ := memoServer(t, Config{Workers: 1})
	if _, _, err := s.Ingest(traceEvents(testTrace(t))); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	served := 0
	for shards := 1; shards <= 8; shards++ {
		for shard := 0; shard < shards; shard++ {
			for _, alg := range []string{"PA", "CN", "AA", "RA"} {
				res, err := s.PredictShard(context.Background(), alg, 2_000_000_000, shard, shards)
				if err != nil {
					t.Fatal(err)
				}
				served += len(res.Pairs)
			}
		}
	}
	retained := int64(heap()) - int64(before)
	const ceiling = 512 << 10
	if unbounded := served * 16; unbounded < 4*ceiling {
		t.Fatalf("the asks served %d pairs (%d B); the fixture is too small to show a retention bound of %d B", served, unbounded, ceiling)
	}
	s.memo.mu.Lock()
	used := s.memo.used
	s.memo.mu.Unlock()
	if used > memoMaxSlots {
		t.Fatalf("memo holds %d slots, budget %d", used, memoMaxSlots)
	}
	t.Logf("served %d pairs (%d B unstored); retained %d B", served, served*16, retained)
	if retained > ceiling {
		t.Fatalf("after serving %d pairs at k=2e9 the server retains %d B, ceiling %d B", served, retained, ceiling)
	}
}

// TestMemoHostileDepthNotCarried: a k = 2·10⁹ ask on epoch N that the
// budget refuses to store is not carried, so a k = 10 ask with a deadline
// on epoch N+1 sweeps at depth 10 and answers 200 — a small k never pays
// for another client's depth beyond what the memo would keep.
func TestMemoHostileDepthNotCarried(t *testing.T) {
	s, counted := memoServer(t, Config{Workers: 1})
	events := traceEvents(testTrace(t))
	if _, _, err := s.Ingest(events[:len(events)-1]); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	pa := counted["PA"]
	res, err := s.Predict(context.Background(), "PA", 2_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) <= memoMaxSlots {
		t.Fatalf("PA has %d candidates, within the %d-slot budget; the fixture cannot show a refused depth", len(res.Pairs), memoMaxSlots)
	}
	if _, _, err := s.Ingest(events[len(events)-1:]); err != nil {
		t.Fatal(err)
	}
	snap := s.Flush()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/predict?alg=PA&k=10&timeout_ms=2000", nil))
	if rec.Code != 200 {
		t.Fatalf("k=10 on the next epoch: status %d body %s", rec.Code, rec.Body)
	}
	if got := pa.lastK.Load(); got != 10 {
		t.Fatalf("k=10 on the next epoch swept at depth %d, want 10", got)
	}
	res, err = s.Predict(context.Background(), "PA", 10)
	if err != nil {
		t.Fatal(err)
	}
	requireOffline(t, s, res, snap, "PA", 10, nil)
	if got := pa.calls.Load(); got != 2 {
		t.Fatalf("PA swept %d times, want 2: the k=10 list was not stored", got)
	}
}
