package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
)

// testPartitionBounds is a deliberately uneven static ownership cover of
// the dense ID space: the last shard's Hi is a sentinel far above any node
// the fixture creates, as an operator would configure it.
var testPartitionBounds = [][2]int{{0, 40}, {40, 90}, {90, 1 << 30}}

// newPartitionedSet starts one full server plus one partitioned server per
// bound, ingests the same fixture into all of them, and flushes.
func newPartitionedSet(t *testing.T, seed int64) (full *Server, parts []*Server) {
	t.Helper()
	events := traceEvents(testTrace(t))
	mk := func(p *[2]int) *Server {
		cfg := Config{SnapshotEvery: 1 << 20, Workers: 2, Partition: p}
		cfg.Opt.Seed = seed
		s := newTestServer(t, cfg)
		if acc, rej, err := s.Ingest(events); err != nil || rej != 0 {
			t.Fatalf("ingest: accepted=%d rejected=%d err=%v", acc, rej, err)
		}
		s.Flush()
		return s
	}
	full = mk(nil)
	for i := range testPartitionBounds {
		b := testPartitionBounds[i]
		parts = append(parts, mk(&b))
	}
	return full, parts
}

// TestServePartitionedPredict checks the partitioned serving contract end
// to end: each shard sweeps exactly its clamped ownership range, reports it
// as a shard-restricted response, and merging the shards' partial lists
// with the engine's own MergeTopK reproduces the full server's unrestricted
// ranking bit for bit.
func TestServePartitionedPredict(t *testing.T) {
	const seed, k = 11, 25
	full, parts := newPartitionedSet(t, seed)
	ctx := context.Background()
	n := full.Snapshot().Graph.NumNodes()

	for _, alg := range []string{"CN", "AA", "RA", "PA", "LHN"} {
		want, err := full.Predict(ctx, alg, k)
		if err != nil {
			t.Fatalf("%s: full predict: %v", alg, err)
		}
		lists := make([][]predict.Pair, len(parts))
		for i, s := range parts {
			res, err := s.Predict(ctx, alg, k)
			if err != nil {
				t.Fatalf("%s: shard %d: %v", alg, i, err)
			}
			if res.ShardRange == nil || res.SnapshotNodes != n {
				t.Fatalf("%s: shard %d response not shard-restricted: %+v", alg, i, res)
			}
			wantLo, wantHi := testPartitionBounds[i][0], testPartitionBounds[i][1]
			if wantHi > n {
				wantHi = n
			}
			if got := *res.ShardRange; got != [2]int{wantLo, wantHi} {
				t.Fatalf("%s: shard %d swept %v, want [%d %d]", alg, i, got, wantLo, wantHi)
			}
			lists[i] = make([]predict.Pair, len(res.Pairs))
			for j, p := range res.Pairs {
				lists[i][j] = predict.Pair{U: p.DU, V: p.DV, Score: p.Score}
			}
		}
		merged := predict.MergeTopK(lists, k, seed)
		if len(merged) != len(want.Pairs) {
			t.Fatalf("%s: merged %d pairs, full served %d", alg, len(merged), len(want.Pairs))
		}
		for i, p := range merged {
			w := want.Pairs[i]
			if full.ids.Externals()[p.U] != w.U || full.ids.Externals()[p.V] != w.V || p.Score != w.Score {
				t.Fatalf("%s: rank %d: merged (%d,%d,%v), full (%d,%d,%v)",
					alg, i, full.ids.Externals()[p.U], full.ids.Externals()[p.V], p.Score, w.U, w.V, w.Score)
			}
		}
	}
}

// TestServePartitionedRejects pins the refusal surface: non-partition-safe
// algorithms and router-style shard parameters are rejected up front with
// ErrPartitionUnsupported, mapped to HTTP 400.
func TestServePartitionedRejects(t *testing.T) {
	b := [2]int{0, 1 << 30}
	cfg := Config{SnapshotEvery: 1 << 20, Partition: &b}
	s := newTestServer(t, cfg)
	ctx := context.Background()

	for _, alg := range []string{"Katz", "KatzSC", "Rescal", "BCN", "SP", "PPR"} {
		if _, err := s.Predict(ctx, alg, 5); !errors.Is(err, ErrPartitionUnsupported) {
			t.Fatalf("Predict(%s) err = %v, want ErrPartitionUnsupported", alg, err)
		}
		if _, err := s.Score(ctx, alg, [][2]int64{{1, 2}}); !errors.Is(err, ErrPartitionUnsupported) {
			t.Fatalf("Score(%s) err = %v, want ErrPartitionUnsupported", alg, err)
		}
	}
	if _, err := s.PredictShard(ctx, "CN", 5, 0, 2); !errors.Is(err, ErrPartitionUnsupported) {
		t.Fatalf("PredictShard err = %v, want ErrPartitionUnsupported", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/predict?alg=Katz&k=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partitioned Katz predict status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/score", "application/json",
		strings.NewReader(`{"alg":"Rescal","pairs":[[1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partitioned Rescal score status = %d, want 400", resp.StatusCode)
	}

	if _, err := New(Config{Partition: &[2]int{5, 5}}); err == nil {
		t.Fatal("New accepted an empty partition range")
	}
}

// TestServePartitionedScoreOwned checks the ownership contract on the score
// path: every resolvable pair is flagged Owned by exactly one shard, the
// owning shard's score equals the full server's, and non-owners (and pairs
// with unknown endpoints) answer zero without the flag.
func TestServePartitionedScoreOwned(t *testing.T) {
	const seed = 13
	full, parts := newPartitionedSet(t, seed)
	ctx := context.Background()

	pairs := [][2]int64{{0, 1}, {3, 97}, {41, 88}, {90, 145}, {2, 9999999}}
	want, err := full.Score(ctx, "AA", pairs)
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]int, len(pairs))
	for i := range owners {
		owners[i] = -1
	}
	for si, s := range parts {
		res, err := s.Score(ctx, "AA", pairs)
		if err != nil {
			t.Fatalf("shard %d: %v", si, err)
		}
		for i, p := range res.Pairs {
			if !p.Owned {
				if p.Score != 0 {
					t.Fatalf("shard %d pair %v: unowned but scored %v", si, pairs[i], p.Score)
				}
				continue
			}
			if owners[i] != -1 {
				t.Fatalf("pair %v owned by shards %d and %d", pairs[i], owners[i], si)
			}
			owners[i] = si
			if p.Score != want.Pairs[i].Score {
				t.Fatalf("pair %v: owned score %v, full %v", pairs[i], p.Score, want.Pairs[i].Score)
			}
		}
	}
	for i, owner := range owners {
		known := pairs[i][0] < 9999999 && pairs[i][1] < 9999999
		if known && owner == -1 {
			t.Fatalf("pair %v has no owner", pairs[i])
		}
		if !known && owner != -1 {
			t.Fatalf("unknown-endpoint pair %v claimed by shard %d", pairs[i], owner)
		}
	}
}

// TestServePartitionedHealthAndMetrics checks the memory telemetry: the
// partitioned shard's health reports its bounds and a resident footprint no
// larger than the full server's, and the Prometheus exposition carries the
// snapshot_bytes / partitioned_bytes / publish_delta_rows families and
// passes the linter.
func TestServePartitionedHealthAndMetrics(t *testing.T) {
	obs.Reset()
	obs.Enable(true)
	defer func() {
		obs.Enable(false)
		obs.Reset()
	}()

	events := traceEvents(testTrace(t))
	fullCfg := Config{SnapshotEvery: 64}
	full := newTestServer(t, fullCfg)
	if _, _, err := full.Ingest(events); err != nil {
		t.Fatal(err)
	}
	full.Flush()
	// A high-lo shard, where partitioning genuinely drops rows: shard 0
	// (lo=0) keeps every min-endpoint entry by construction and saves
	// nothing on a small graph (DESIGN.md §13 quantifies this asymmetry).
	// Created after the full server so the process-global gauge callbacks
	// read the partitioned server (last registration wins).
	b := [2]int{90, 1 << 30}
	cfg := Config{SnapshotEvery: 64, Partition: &b}
	s := newTestServer(t, cfg)
	if _, _, err := s.Ingest(events); err != nil {
		t.Fatal(err)
	}
	s.Flush()

	h := s.Health()
	if h.PartitionRange == nil || *h.PartitionRange != b {
		t.Fatalf("health partition_range = %v, want %v", h.PartitionRange, b)
	}
	if h.SnapshotBytes <= 0 {
		t.Fatalf("health snapshot_bytes = %d, want > 0", h.SnapshotBytes)
	}
	if fh := full.Health(); fh.PartitionRange != nil || h.SnapshotBytes >= fh.SnapshotBytes {
		t.Fatalf("partitioned resident %d bytes exceeds full %d (full range=%v)",
			h.SnapshotBytes, fh.SnapshotBytes, fh.PartitionRange)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 0, 1<<20)
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	if err := obs.LintPrometheus(body); err != nil {
		t.Fatalf("exposition does not lint: %v", err)
	}
	for _, fam := range []string{
		"linkpred_serve_snapshot_bytes",
		"linkpred_serve_partitioned_bytes",
		"linkpred_serve_publish_delta_rows",
	} {
		if !strings.Contains(string(body), fam) {
			t.Fatalf("exposition missing family %s", fam)
		}
	}

	// The partitioned gauge mirrors the snapshot gauge on a partitioned
	// shard; on the full server it must read zero.
	if got := gaugeValue(t, body, "linkpred_serve_snapshot_bytes"); got != float64(s.Health().SnapshotBytes) {
		t.Fatalf("snapshot_bytes gauge = %v, health says %d", got, s.Health().SnapshotBytes)
	}
	if got := gaugeValue(t, body, "linkpred_serve_partitioned_bytes"); got == 0 {
		t.Fatal("partitioned_bytes gauge is zero on a partitioned shard")
	}
}

// gaugeValue extracts one unlabeled gauge sample from a Prometheus
// exposition.
func gaugeValue(t *testing.T, body []byte, family string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, family+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[len(family)+1:], "%g", &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("family %s has no sample", family)
	return 0
}

// TestServePartitionedDeltaPublish checks that incremental publishes on a
// partitioned server keep the delta counters moving and that graph state
// reaches queries through the partition: a freshly ingested edge's
// endpoints score against the new snapshot.
func TestServePartitionedDeltaPublish(t *testing.T) {
	b := [2]int{0, 1 << 30}
	cfg := Config{SnapshotEvery: 4, Partition: &b}
	s := newTestServer(t, cfg)
	ctx := context.Background()

	var events []Event
	for i := 0; i < 32; i++ {
		events = append(events, Event{U: int64(i), V: int64(i + 1), T: int64(i)})
	}
	if _, _, err := s.Ingest(events); err != nil {
		t.Fatal(err)
	}
	snap := s.Flush()
	if snap.Graph.Partition() == nil {
		t.Fatal("published snapshot is not partitioned")
	}
	res, err := s.Score(ctx, "CN", [][2]int64{{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs[0].Score != 1 || !res.Pairs[0].Owned {
		t.Fatalf("CN(0,2) = %+v, want owned score 1", res.Pairs[0])
	}
	g1 := snap.Graph
	if _, _, err := s.Ingest([]Event{{U: 0, V: 33, T: 100}, {U: 2, V: 33, T: 101}}); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	res, err = s.Score(ctx, "CN", [][2]int64{{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs[0].Score != 2 {
		t.Fatalf("CN(0,2) after delta publish = %v, want 2", res.Pairs[0].Score)
	}
	// The earlier snapshot must be untouched by the later publish.
	if got := graph.NodeID(g1.NumNodes()); got != 33 {
		t.Fatalf("old snapshot grew to %d nodes", got)
	}
}
