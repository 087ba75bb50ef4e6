package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
)

// testTrace generates the shared seeded fixture: a small Facebook-analogue
// growth trace (~150 nodes, ~1300 edges).
func testTrace(t testing.TB) *graph.Trace {
	t.Helper()
	tr, err := gen.Generate(gen.Facebook(7).Scaled(0.05))
	if err != nil {
		t.Fatalf("generate fixture: %v", err)
	}
	return tr
}

// traceEvents converts a trace's edge stream into ingest events, using the
// trace's dense IDs as the external IDs.
func traceEvents(tr *graph.Trace) []Event {
	events := make([]Event, len(tr.Edges))
	for i, e := range tr.Edges {
		events[i] = Event{U: int64(e.U), V: int64(e.V), T: e.Time}
	}
	return events
}

// newTestServer starts a server with test-friendly defaults, closing it on
// test cleanup. Callers override cfg fields before passing it in.
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Degrade.P95 == 0 && !cfg.Degrade.Disabled {
		cfg.Degrade.Disabled = true // tests opt in to degradation explicitly
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestServePredictMatchesOffline pins the core serving contract: a /predict
// answer is bit-identical to running the offline Predict path on the same
// published snapshot, for a local, a bayesian, and a latent algorithm.
func TestServePredictMatchesOffline(t *testing.T) {
	tr := testTrace(t)
	s := newTestServer(t, Config{SnapshotEvery: 1 << 20, Workers: 2})
	if acc, rej, err := s.Ingest(traceEvents(tr)); err != nil || rej != 0 {
		t.Fatalf("ingest: accepted=%d rejected=%d err=%v", acc, rej, err)
	}
	snap := s.Flush()
	if snap.Seq != 1 {
		t.Fatalf("flush seq = %d, want 1", snap.Seq)
	}
	const k = 25
	for _, name := range []string{"CN", "BAA", "Katz"} {
		res, err := s.Predict(context.Background(), name, k)
		if err != nil {
			t.Fatalf("%s: predict: %v", name, err)
		}
		if res.SnapshotSeq != snap.Seq || res.SnapshotEdges != snap.Edges {
			t.Fatalf("%s: served against snapshot %d/%d edges, want %d/%d",
				name, res.SnapshotSeq, res.SnapshotEdges, snap.Seq, snap.Edges)
		}
		if res.Degraded || res.ServedBy != name {
			t.Fatalf("%s: unexpected degradation: served_by=%s degraded=%v", name, res.ServedBy, res.Degraded)
		}
		alg, err := predict.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := alg.Predict(snap.Graph, k, s.cfg.Opt)
		if len(res.Pairs) != len(want) {
			t.Fatalf("%s: %d pairs, offline %d", name, len(res.Pairs), len(want))
		}
		for i, w := range want {
			got := res.Pairs[i]
			if got.U != s.ids.Externals()[w.U] || got.V != s.ids.Externals()[w.V] || got.Score != w.Score {
				t.Fatalf("%s: rank %d served %+v, offline %+v", name, i, got, w)
			}
		}
	}
}

// TestServeScoreMatchesOffline pins the same contract for /score, including
// the zero-score handling of unknown external IDs.
func TestServeScoreMatchesOffline(t *testing.T) {
	tr := testTrace(t)
	s := newTestServer(t, Config{SnapshotEvery: 1 << 20, Workers: 1})
	if _, _, err := s.Ingest(traceEvents(tr)); err != nil {
		t.Fatal(err)
	}
	snap := s.Flush()
	ext := [][2]int64{{0, 5}, {3, 3}, {9, 1}, {999999, 0}, {2, 888888}}
	res, err := s.Score(context.Background(), "AA", ext)
	if err != nil {
		t.Fatal(err)
	}
	var flat []predict.Pair
	for _, p := range ext[:3] {
		u, _ := s.ids.Lookup(p[0])
		v, _ := s.ids.Lookup(p[1])
		flat = append(flat, predict.Pair{U: u, V: v})
	}
	want := predict.AA.ScorePairs(snap.Graph, flat, s.cfg.Opt)
	for i := range flat {
		if res.Pairs[i].Score != want[i] {
			t.Fatalf("pair %v: served %v, offline %v", ext[i], res.Pairs[i].Score, want[i])
		}
	}
	for i := 3; i < len(ext); i++ {
		if res.Pairs[i].Score != 0 {
			t.Fatalf("unknown-id pair %v scored %v, want 0", ext[i], res.Pairs[i].Score)
		}
		if res.Pairs[i].U != ext[i][0] || res.Pairs[i].V != ext[i][1] {
			t.Fatalf("pair %d echoed as (%d,%d), want %v", i, res.Pairs[i].U, res.Pairs[i].V, ext[i])
		}
	}
}

// TestSnapshotCadence checks the publish cadence: every SnapshotEvery
// accepted edges a new immutable snapshot becomes visible, and OnPublish
// observes each one before queries can reference it.
func TestSnapshotCadence(t *testing.T) {
	tr := testTrace(t)
	events := traceEvents(tr)
	var published []int64
	s := newTestServer(t, Config{
		SnapshotEvery: 100,
		Workers:       1,
		OnPublish:     func(sn *Snapshot) { published = append(published, sn.Seq) },
	})
	for lo := 0; lo < len(events); lo += 37 {
		hi := lo + 37
		if hi > len(events) {
			hi = len(events)
		}
		if _, _, err := s.Ingest(events[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Flush()
	wantPubs := int64(len(events)/100) + 1 // cadence publishes + the final flush
	if snap.Seq != wantPubs {
		t.Fatalf("final seq = %d, want %d (%d events)", snap.Seq, wantPubs, len(events))
	}
	// OnPublish saw seq 0 (initial) through the final one, in order.
	for i, seq := range published {
		if seq != int64(i) {
			t.Fatalf("publication %d has seq %d", i, seq)
		}
	}
	if snap.Edges != len(events) {
		t.Fatalf("final snapshot folded %d edges, want %d", snap.Edges, len(events))
	}
}

// TestIngestRejectsMalformedEvents checks per-event rejection: negative IDs
// and self loops are dropped individually without poisoning the batch.
func TestIngestRejectsMalformedEvents(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	acc, rej, err := s.Ingest([]Event{
		{U: 0, V: 1, T: 1},
		{U: -1, V: 2, T: 2},
		{U: 3, V: 3, T: 3},
		{U: 1, V: 2, T: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 2 || rej != 2 {
		t.Fatalf("accepted=%d rejected=%d, want 2/2", acc, rej)
	}
	snap := s.Flush()
	if snap.Graph.NumNodes() != 3 || snap.Graph.NumEdges() != 2 {
		t.Fatalf("snapshot has %d nodes / %d edges, want 3/2",
			snap.Graph.NumNodes(), snap.Graph.NumEdges())
	}
}

// blockingAlg parks Predict calls until released, so tests can hold a
// worker busy deterministically.
type blockingAlg struct {
	name    string
	started chan struct{}
	release chan struct{}
}

func (b *blockingAlg) Name() string { return b.name }
func (b *blockingAlg) Predict(g *graph.Graph, k int, opt predict.Options) []predict.Pair {
	b.started <- struct{}{}
	<-b.release
	return nil
}
func (b *blockingAlg) ScorePairs(g *graph.Graph, pairs []predict.Pair, opt predict.Options) []float64 {
	return make([]float64, len(pairs))
}

// TestOverloadBackpressure checks the bounded queue: with the only worker
// parked and the queue full, the next request is rejected with
// ErrOverloaded instead of blocking, and the rejection counter advances.
func TestOverloadBackpressure(t *testing.T) {
	obs.Enable(true)
	obs.Reset()
	t.Cleanup(func() { obs.Enable(false) })
	blocker := &blockingAlg{name: "Block", started: make(chan struct{}), release: make(chan struct{})}
	s := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Resolve: func(name string) (predict.Algorithm, error) {
			if name == "Block" {
				return blocker, nil
			}
			return predict.ByName(name)
		},
	})
	if _, _, err := s.Ingest([]Event{{U: 0, V: 1, T: 1}}); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	errs := make(chan error, 2)
	go func() {
		_, err := s.Predict(context.Background(), "Block", 5)
		errs <- err
	}()
	<-blocker.started // the worker is now parked inside the first request
	go func() {
		_, err := s.Predict(context.Background(), "CN", 5)
		errs <- err
	}()
	// Wait until the second request occupies the queue's only slot (its
	// enqueue is concurrent), then probe: with the worker parked and the
	// queue full, the probe must bounce rather than block.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Predict(context.Background(), "CN", 5); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("probe with full queue: err = %v, want ErrOverloaded", err)
	}
	if got := obs.GetCounter("serve/overload_rejected").Value(); got < 1 {
		t.Fatalf("overload_rejected = %d, want >= 1", got)
	}
	close(blocker.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("parked request %d failed: %v", i, err)
		}
	}
}

// TestClosedServerRejects checks shutdown: Close answers everything and
// later calls fail fast with ErrClosed.
func TestClosedServerRejects(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.Close()
	if _, _, err := s.Ingest([]Event{{U: 0, V: 1, T: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: %v, want ErrClosed", err)
	}
	if _, err := s.Predict(context.Background(), "CN", 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("predict after close: %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestUnknownAlgorithmRejected checks that resolution fails fast at submit,
// before a queue slot is consumed.
func TestUnknownAlgorithmRejected(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if _, err := s.Predict(context.Background(), "NoSuchAlg", 5); !errors.Is(err, predict.ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
}

// TestServeMemoryMetrics checks the memory telemetry of a full server: the
// health payload reports a resident footprint, the Prometheus exposition
// carries the snapshot_bytes and publish_delta_rows families and passes the
// linter, and the snapshot_bytes gauge equals the health figure.
func TestServeMemoryMetrics(t *testing.T) {
	obs.Reset()
	obs.Enable(true)
	defer func() {
		obs.Enable(false)
		obs.Reset()
	}()
	s := newTestServer(t, Config{SnapshotEvery: 64})
	if _, _, err := s.Ingest(traceEvents(testTrace(t))); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	h := s.Health()
	if h.SnapshotBytes <= 0 {
		t.Fatalf("health snapshot_bytes = %d, want > 0", h.SnapshotBytes)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if err := obs.LintPrometheus([]byte(body)); err != nil {
		t.Fatalf("exposition does not lint: %v", err)
	}
	if !strings.Contains(body, "linkpred_serve_publish_delta_rows") {
		t.Fatal("exposition missing family linkpred_serve_publish_delta_rows")
	}
	const family = "linkpred_serve_snapshot_bytes"
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, family+" "); ok {
			if got, err := strconv.ParseFloat(v, 64); err != nil || got != float64(h.SnapshotBytes) {
				t.Fatalf("%s gauge = %s, health says %d", family, v, h.SnapshotBytes)
			}
			return
		}
	}
	t.Fatalf("family %s has no sample", family)
}

// TestServeDeltaPublish checks that graph state reaches queries through
// incremental publishes — a freshly ingested edge's endpoints score against
// the new snapshot — and that an earlier snapshot is untouched by a later
// delta publish.
func TestServeDeltaPublish(t *testing.T) {
	s := newTestServer(t, Config{SnapshotEvery: 4})
	ctx := context.Background()
	var events []Event
	for i := 0; i < 32; i++ {
		events = append(events, Event{U: int64(i), V: int64(i + 1), T: int64(i)})
	}
	if _, _, err := s.Ingest(events); err != nil {
		t.Fatal(err)
	}
	g1 := s.Flush().Graph
	score := func() float64 {
		t.Helper()
		res, err := s.Score(ctx, "CN", [][2]int64{{0, 2}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Pairs[0].Score
	}
	if got := score(); got != 1 {
		t.Fatalf("CN(0,2) = %v, want 1", got)
	}
	if _, _, err := s.Ingest([]Event{{U: 0, V: 33, T: 100}, {U: 2, V: 33, T: 101}}); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if got := score(); got != 2 {
		t.Fatalf("CN(0,2) after delta publish = %v, want 2", got)
	}
	if g1.NumNodes() != 33 || g1.Degree(0) != 1 || g1.Degree(2) != 2 {
		t.Fatalf("old snapshot changed: %d nodes, deg(0)=%d, deg(2)=%d", g1.NumNodes(), g1.Degree(0), g1.Degree(2))
	}
}
