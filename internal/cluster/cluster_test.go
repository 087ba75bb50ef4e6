package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/liveeval"
	"linkpred/internal/obs"
	"linkpred/internal/serve"
)

// snapRecord is one shard's view of one published snapshot, captured via
// OnPublish for the cross-shard determinism check.
type snapRecord struct {
	edges int
	time  int64
	nodes int
}

// testCluster is a router over in-process worker servers.
type testCluster struct {
	router  *Router
	servers []*serve.Server
	ts      []*httptest.Server
	// snaps[i] maps seq -> record for shard i.
	snaps []map[int64]snapRecord
	mu    sync.Mutex
}

func newTestCluster(t *testing.T, shards int, seed int64, opts ...func(*Config)) *testCluster {
	t.Helper()
	return newTestClusterWith(t, shards, seed, nil, opts...)
}

// newTestClusterWith is newTestCluster with a hook that adjusts shard i's
// serve.Config before the shard starts.
func newTestClusterWith(t *testing.T, shards int, seed int64, shardCfg func(i int, c *serve.Config), opts ...func(*Config)) *testCluster {
	t.Helper()
	tc := &testCluster{snaps: make([]map[int64]snapRecord, shards)}
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		i := i
		tc.snaps[i] = make(map[int64]snapRecord)
		cfg := serve.Config{
			SnapshotEvery: 256,
			OnPublish: func(s *serve.Snapshot) {
				tc.mu.Lock()
				tc.snaps[i][s.Seq] = snapRecord{edges: s.Edges, time: s.Time, nodes: s.Graph.NumNodes()}
				tc.mu.Unlock()
			},
		}
		cfg.Opt.Seed = seed
		if shardCfg != nil {
			shardCfg(i, &cfg)
		}
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		tc.servers = append(tc.servers, srv)
		ts := httptest.NewServer(srv.Handler())
		tc.ts = append(tc.ts, ts)
		urls[i] = ts.URL
	}
	cfg := Config{Shards: urls, Seed: seed, Timeout: 30 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	tc.router = New(cfg)
	t.Cleanup(func() {
		for _, ts := range tc.ts {
			ts.Close()
		}
		for _, s := range tc.servers {
			s.Close()
		}
	})
	return tc
}

// refServer is the single-node reference the cluster's merged output must
// match byte for byte.
func refServer(t *testing.T, seed int64, opts ...func(*serve.Config)) (*serve.Server, *httptest.Server) {
	t.Helper()
	cfg := serve.Config{SnapshotEvery: 256}
	cfg.Opt.Seed = seed
	for _, o := range opts {
		o(&cfg)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, body
}

// randomEvents builds a deterministic event stream with external IDs offset
// from the dense space, so the dense<->external remap is exercised.
func randomEvents(seed int64, n int) []serve.Event {
	r := rand.New(rand.NewSource(seed))
	events := make([]serve.Event, 0, n)
	for i := 0; i < n; i++ {
		u := int64(1000 + r.Intn(300))
		v := int64(1000 + r.Intn(300))
		if u == v {
			continue
		}
		events = append(events, serve.Event{U: u, V: v, T: int64(i)})
	}
	return events
}

// TestClusterBitIdenticalMerge is the end-to-end determinism contract: the
// router's merged /predict response over 3 shards is byte-identical to a
// single-node server that ingested the same stream — same pairs, same
// order, same scores, same snapshot metadata, same JSON bytes.
func TestClusterBitIdenticalMerge(t *testing.T) {
	const seed = 7
	tc := newTestCluster(t, 3, seed)
	refSrv, ref := refServer(t, seed)
	ctx := context.Background()

	events := randomEvents(11, 900)
	for i := 0; i < len(events); i += 90 {
		end := i + 90
		if end > len(events) {
			end = len(events)
		}
		batch := events[i:end]
		if _, err := tc.router.Ingest(ctx, batch); err != nil {
			t.Fatalf("router ingest: %v", err)
		}
		if _, _, err := refSrv.Ingest(batch); err != nil {
			t.Fatalf("ref ingest: %v", err)
		}
	}
	if _, err := tc.router.Flush(ctx); err != nil {
		t.Fatalf("router flush: %v", err)
	}
	refSrv.Flush()

	rt := httptest.NewServer(tc.router.Handler())
	defer rt.Close()

	for _, alg := range []string{"CN", "AA", "Katz"} {
		u := fmt.Sprintf("/predict?alg=%s&k=25", alg)
		ccode, cbody := httpGet(t, rt.URL+u)
		rcode, rbody := httpGet(t, ref.URL+u)
		if ccode != 200 || rcode != 200 {
			t.Fatalf("%s: status cluster=%d ref=%d (%s / %s)", alg, ccode, rcode, cbody, rbody)
		}
		if string(cbody) != string(rbody) {
			t.Fatalf("%s: cluster response is not byte-identical to single node\ncluster: %s\nsingle:  %s", alg, cbody, rbody)
		}
		var res Response
		if err := json.Unmarshal(cbody, &res); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Partial || len(res.Pairs) == 0 {
			t.Fatalf("%s: unexpected partial=%v pairs=%d", alg, res.Partial, len(res.Pairs))
		}
		for _, p := range res.Pairs {
			if p.DU != 0 || p.DV != 0 {
				t.Fatalf("%s: merged response leaked dense IDs: %+v", alg, p)
			}
		}
	}

	// Same-seq snapshots must be identical across shards: replicated
	// ingest in serialized order is the whole epoch-consistency story.
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for seq, want := range tc.snaps[0] {
		for i := 1; i < len(tc.snaps); i++ {
			got, ok := tc.snaps[i][seq]
			if !ok {
				continue // shard published later; absence is a skew, not a divergence
			}
			if got != want {
				t.Fatalf("seq %d diverged: shard 0 %+v, shard %d %+v", seq, want, i, got)
			}
		}
	}
}

// TestClusterMemoStaleAfterPublish is the "memo stale after publish" case
// of the shards' epoch memo: a two-shard router answers one (alg, k), the
// same again (every shard part a memo hit), and again after a replicated
// ingest plus flush. Each answer is byte-identical to a single node's, and
// the last one is on the new epoch, not the memoised old one.
func TestClusterMemoStaleAfterPublish(t *testing.T) {
	obs.Reset()
	obs.Enable(true)
	t.Cleanup(func() {
		obs.Enable(false)
		obs.Reset()
	})
	const seed = 5
	tc := newTestCluster(t, 2, seed)
	refSrv, ref := refServer(t, seed)
	rt := httptest.NewServer(tc.router.Handler())
	defer rt.Close()
	ctx := context.Background()
	events := randomEvents(13, 900)
	step := func(batch []serve.Event) {
		t.Helper()
		if _, err := tc.router.Ingest(ctx, batch); err != nil {
			t.Fatalf("router ingest: %v", err)
		}
		if _, err := tc.router.Flush(ctx); err != nil {
			t.Fatalf("router flush: %v", err)
		}
		if _, _, err := refSrv.Ingest(batch); err != nil {
			t.Fatalf("ref ingest: %v", err)
		}
		refSrv.Flush()
	}
	const u = "/predict?alg=AA&k=30"
	var seqs []int64
	ask := func() {
		t.Helper()
		ccode, cbody := httpGet(t, rt.URL+u)
		rcode, rbody := httpGet(t, ref.URL+u)
		if ccode != 200 || rcode != 200 || string(cbody) != string(rbody) {
			t.Fatalf("status cluster=%d ref=%d; not byte-identical\ncluster: %s\nsingle:  %s", ccode, rcode, cbody, rbody)
		}
		var res Response
		if err := json.Unmarshal(cbody, &res); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, res.SnapshotSeq)
	}
	hits := obs.GetCounter("serve/predict_memo_hits")
	step(events[:600])
	ask()
	ask()
	if got := hits.Value(); got != 3 {
		t.Fatalf("serve/predict_memo_hits = %d after the repeat, want 3 (both shards and the single node)", got)
	}
	step(events[600:])
	ask()
	if seqs[0] != seqs[1] || seqs[2] <= seqs[1] {
		t.Fatalf("answer epochs %v: want two on one epoch, then a newer one", seqs)
	}
	if got := hits.Value(); got != 3 {
		t.Fatalf("serve/predict_memo_hits = %d after the publish, want 3: the new epoch is swept", got)
	}
}

// TestClusterConcurrentIngestPredict hammers the router with interleaved
// replicated ingest and scatter/gather predicts under the race detector,
// then verifies the quiesced cluster still merges bit-identically.
func TestClusterConcurrentIngestPredict(t *testing.T) {
	const seed = 3
	tc := newTestCluster(t, 3, seed)
	ctx := context.Background()
	rt := httptest.NewServer(tc.router.Handler())
	defer rt.Close()

	events := randomEvents(5, 1200)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < len(events); i += 60 {
			end := i + 60
			if end > len(events) {
				end = len(events)
			}
			if _, err := tc.router.Ingest(ctx, events[i:end]); err != nil {
				t.Errorf("concurrent ingest: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			// Mid-stream responses may be partial if a publish lands
			// between gathers and the re-ask budget runs out; only
			// transport-level failure is an error here.
			code, body := httpGet(t, rt.URL+"/predict?alg=CN&k=10")
			if code != 200 && code != 502 {
				t.Errorf("concurrent predict: status %d: %s", code, body)
				return
			}
		}
	}()
	wg.Wait()

	if _, err := tc.router.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	code, body := httpGet(t, rt.URL+"/predict?alg=CN&k=20")
	if code != 200 {
		t.Fatalf("quiesced predict: status %d: %s", code, body)
	}
	var res Response
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("quiesced cluster served partial: %s", body)
	}

	// Offline recomputation: rebuild the final graph on a fresh server
	// from the same event stream and compare the ranked list.
	cfg := serve.Config{SnapshotEvery: 256}
	cfg.Opt.Seed = seed
	offline, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer offline.Close()
	if _, _, err := offline.Ingest(events); err != nil {
		t.Fatal(err)
	}
	offline.Flush()
	want, err := offline.Predict(ctx, "CN", 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) != len(res.Pairs) {
		t.Fatalf("got %d pairs, want %d", len(res.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		if res.Pairs[i] != want.Pairs[i] {
			t.Fatalf("rank %d: got %+v, want %+v", i, res.Pairs[i], want.Pairs[i])
		}
	}
}

// TestClusterShardDown kills one shard and checks the degradation
// contract: partial:true, the dead shard's exact source range reported
// missing, the surviving shards' merge still served, and health reflecting
// the outage.
func TestClusterShardDown(t *testing.T) {
	const seed = 9
	tc := newTestCluster(t, 3, seed)
	// Fail fast: a dead httptest server refuses connections immediately,
	// so tight retry bounds keep the test quick.
	tc.router.cfg.EpochBackoff = time.Millisecond
	ctx := context.Background()

	events := randomEvents(2, 600)
	if _, err := tc.router.Ingest(ctx, events); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.router.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	full, err := tc.router.Predict(ctx, "CN", 15)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatalf("healthy cluster served partial")
	}

	// Learn the dead shard's degree-weighted range before killing it: ask
	// it directly for its restricted sweep and read the reported
	// shard_range — exactly what the router must later reconstruct from
	// the surviving neighbors' boundaries.
	const dead = 1
	deadRes, err := tc.servers[dead].PredictShard(ctx, "CN", 15, dead, 3)
	if err != nil {
		t.Fatal(err)
	}
	if deadRes.ShardRange == nil {
		t.Fatal("sharded response missing shard_range")
	}
	want := *deadRes.ShardRange
	tc.ts[dead].Close()

	res, err := tc.router.Predict(ctx, "CN", 15)
	if err != nil {
		t.Fatalf("predict with dead shard: %v", err)
	}
	if !res.Partial {
		t.Fatal("dead shard not reported: partial=false")
	}
	if len(res.MissingRanges) != 1 || res.MissingRanges[0] != want {
		t.Fatalf("missing_ranges = %v, want [%v]", res.MissingRanges, want)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("partial response carried no pairs from surviving shards")
	}
	// The surviving merge must equal the full merge minus the dead
	// shard's owned pairs — every served pair must appear in the full
	// ranking's universe with an identical score.
	fullSet := map[[2]int64]float64{}
	for _, p := range full.Pairs {
		fullSet[[2]int64{p.U, p.V}] = p.Score
	}
	for _, p := range res.Pairs {
		if s, ok := fullSet[[2]int64{p.U, p.V}]; ok && s != p.Score {
			t.Fatalf("pair (%d,%d) score changed across partial merge: %v vs %v", p.U, p.V, p.Score, s)
		}
	}

	h := tc.router.Health(ctx)
	if h.OK || h.ShardsUp != 2 {
		t.Fatalf("health after kill: ok=%v up=%d, want ok=false up=2", h.OK, h.ShardsUp)
	}

	// Ingest keeps flowing to survivors, reporting the divergence.
	out, err := tc.router.Ingest(ctx, randomEvents(4, 50))
	if err != nil {
		t.Fatalf("ingest with dead shard: %v", err)
	}
	if out.ShardErrors != 1 {
		t.Fatalf("ingest shard_errors = %d, want 1", out.ShardErrors)
	}
}

// TestClusterScoreForward checks the round-robin /score proxy, including
// failover past a dead shard.
func TestClusterScoreForward(t *testing.T) {
	tc := newTestCluster(t, 2, 1)
	ctx := context.Background()
	if _, err := tc.router.Ingest(ctx, []serve.Event{
		{U: 1, V: 2, T: 1}, {U: 2, V: 3, T: 2}, {U: 1, V: 3, T: 3}, {U: 3, V: 4, T: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.router.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	rt := httptest.NewServer(tc.router.Handler())
	defer rt.Close()

	tc.ts[0].Close() // failover must route around shard 0
	body := `{"alg":"CN","pairs":[[1,4],[2,4]]}`
	resp, err := http.Post(rt.URL+"/score", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("score status %d: %s", resp.StatusCode, raw)
	}
	var res serve.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 2 {
		t.Fatalf("score pairs = %d, want 2", len(res.Pairs))
	}
}

// TestClusterCatchingUpHealth: a shard that rejoins behind the replicated
// stream — the post-crash-recovery state, where its WAL restored an older
// ingest position — is reported up but catching_up in the aggregate
// health, and the flag clears once the missed delta is replayed into it.
func TestClusterCatchingUpHealth(t *testing.T) {
	const seed = 31
	tc := newTestCluster(t, 2, seed)
	ctx := context.Background()

	events := randomEvents(seed, 120)
	if _, err := tc.router.Ingest(ctx, events[:80]); err != nil {
		t.Fatal(err)
	}
	h := tc.router.Health(ctx)
	if !h.OK || h.CatchingUp != 0 {
		t.Fatalf("aligned cluster: ok=%v catching_up=%d", h.OK, h.CatchingUp)
	}

	// Shard 1 misses a batch (the crash window): feed it to shard 0 only.
	if _, _, err := tc.servers[0].Ingest(events[80:]); err != nil {
		t.Fatal(err)
	}
	h = tc.router.Health(ctx)
	if h.OK {
		t.Fatal("health OK with a lagging shard")
	}
	if h.CatchingUp != 1 {
		t.Fatalf("catching_up = %d, want 1", h.CatchingUp)
	}
	if h.Workers[0].CatchingUp || !h.Workers[1].CatchingUp {
		t.Fatalf("wrong shard flagged: %+v", h.Workers)
	}
	if !h.Workers[1].Up {
		t.Fatal("a catching-up shard must still be up")
	}

	// Replaying the missed delta realigns the traces and clears the flag.
	if _, _, err := tc.servers[1].Ingest(events[80:]); err != nil {
		t.Fatal(err)
	}
	h = tc.router.Health(ctx)
	if !h.OK || h.CatchingUp != 0 {
		t.Fatalf("after delta replay: ok=%v catching_up=%d (%+v)", h.OK, h.CatchingUp, h.Workers)
	}
}

// TestClusterRouterEval exercises router-side prequential evaluation: the
// merged (cluster-level) /predict rankings are recorded, and subsequently
// replicated ingest edges are scored against them — measurements no single
// shard could produce, since none holds the merged ranking.
func TestClusterRouterEval(t *testing.T) {
	const seed = 7
	eval := liveeval.New(liveeval.Config{TopK: 64, Window: 256})
	tc := newTestCluster(t, 3, seed, func(c *Config) { c.Eval = eval })
	ctx := context.Background()

	events := randomEvents(11, 900)
	warm, rest := events[:600], events[600:]
	if _, err := tc.router.Ingest(ctx, warm); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.router.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.router.Predict(ctx, "CN", 64); err != nil {
		t.Fatal(err)
	}
	st, ok := eval.Stats("CN")
	if !ok || st.Recorded == 0 {
		t.Fatalf("merged prediction not recorded: ok=%v stats=%+v", ok, st)
	}
	if _, err := tc.router.Ingest(ctx, rest); err != nil {
		t.Fatal(err)
	}
	st, _ = eval.Stats("CN")
	if st.ScoredEdges == 0 {
		t.Fatalf("no replicated edges scored against the merged ranking: %+v", st)
	}
	// The fixture revisits a small ID pool, so some top-64 CN pairs come
	// true; a zero hit count would mean the dense remap diverged from the
	// workers' and nothing the cluster predicted could ever match.
	if st.Hits == 0 {
		t.Fatalf("no hits against merged predictions (remap divergence?): %+v", st)
	}
}

// TestClusterOneShardDegraded trips one real shard's degrader beside a
// healthy one. Shard 1 answers Katz with AA's sweep, shard 0 with Katz's;
// the router must not merge the two. It re-gathers under AA, and its answer
// is byte-identical to a single degraded node's Katz answer: AA's ranking
// under {"alg":"Katz","served_by":"AA","degraded":true}.
func TestClusterOneShardDegraded(t *testing.T) {
	obs.Enable(true)
	obs.Reset()
	t.Cleanup(func() { obs.Enable(false) })
	const seed = 7
	tripped := serve.DegradeConfig{P95: time.Nanosecond, Window: 1}
	tc := newTestClusterWith(t, 2, seed, func(i int, c *serve.Config) {
		c.Degrade = tripped
		c.Degrade.Disabled = i == 0
	})
	refSrv, ref := refServer(t, seed, func(c *serve.Config) { c.Degrade = tripped })
	ctx := context.Background()
	events := randomEvents(11, 900)
	if _, err := tc.router.Ingest(ctx, events); err != nil {
		t.Fatal(err)
	}
	if _, _, err := refSrv.Ingest(events); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.router.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	refSrv.Flush()
	// One sweep over 1ns trips a one-observation window, and every later
	// sweep keeps it tripped.
	for _, s := range []*serve.Server{tc.servers[1], refSrv} {
		if _, err := s.Predict(ctx, "CN", 5); err != nil {
			t.Fatal(err)
		}
	}
	if tc.servers[0].Degraded() || !tc.servers[1].Degraded() || !refSrv.Degraded() {
		t.Fatalf("degraded: shard 0 %v, shard 1 %v, reference %v; want false, true, true",
			tc.servers[0].Degraded(), tc.servers[1].Degraded(), refSrv.Degraded())
	}
	rt := httptest.NewServer(tc.router.Handler())
	defer rt.Close()
	ccode, cbody := httpGet(t, rt.URL+"/predict?alg=Katz&k=25")
	rcode, rbody := httpGet(t, ref.URL+"/predict?alg=Katz&k=25")
	if ccode != 200 || rcode != 200 || string(cbody) != string(rbody) {
		t.Fatalf("router answer is not the single degraded node's:\nrouter %d %s\nsingle %d %s", ccode, cbody, rcode, rbody)
	}
	if !strings.HasPrefix(string(cbody), `{"alg":"Katz","served_by":"AA","degraded":true,`) {
		t.Fatalf("not a degraded Katz answer: %s", cbody)
	}
	if got := obs.GetCounter("cluster/degraded_regathers").Value(); got != 1 {
		t.Fatalf("cluster/degraded_regathers = %d, want 1", got)
	}
}

// TestClusterRouterEvalWarmShardsMisaligned: router eval needs shards born
// empty. Two shards booted with Config.Trace at 60 % of Renren ×0.05 hold
// edges the router's mirror never admitted, so the mirror's trace indices
// sit below every floor liveeval would score against. The router must
// notice at the first replicated ingest — its mirror's length differs from
// the shards' trace_edges — count that once in cluster/eval_misaligned,
// and from then on record and score nothing, rather than keep recording
// rankings no edge can ever be scored against.
func TestClusterRouterEvalWarmShardsMisaligned(t *testing.T) {
	obs.Reset()
	obs.Enable(true)
	t.Cleanup(func() {
		obs.Enable(false)
		obs.Reset()
	})
	src, err := gen.Generate(gen.Renren(1).Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	cut := src.NumEdges() * 60 / 100
	warmTrace := func() *graph.Trace {
		tr := &graph.Trace{Name: "warm"}
		for _, e := range src.Edges[:cut] {
			if _, err := tr.Append(e.U, e.V, e.Time); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	const seed = 7
	eval := liveeval.New(liveeval.Config{TopK: 128, Window: 256})
	tc := newTestClusterWith(t, 2, seed,
		func(_ int, c *serve.Config) { c.Trace = warmTrace() },
		func(c *Config) { c.Eval = eval })
	ctx := context.Background()

	if _, err := tc.router.Predict(ctx, "CN", 128); err != nil {
		t.Fatal(err)
	}
	tail := make([]serve.Event, 0, src.NumEdges()-cut)
	for _, e := range src.Edges[cut:] {
		tail = append(tail, serve.Event{U: int64(e.U), V: int64(e.V), T: e.Time})
	}
	for i := 0; i < len(tail); i += 100 {
		if _, err := tc.router.Ingest(ctx, tail[i:min(i+100, len(tail))]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tc.router.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.router.Predict(ctx, "CN", 128); err != nil {
		t.Fatal(err)
	}
	st, _ := eval.Stats("CN")
	if got := obs.Snapshot().Counters["cluster/eval_misaligned"]; got != 1 {
		t.Errorf("cluster/eval_misaligned = %d, want 1 (stats %+v)", got, st)
	}
	if st.Recorded != 1 || st.ScoredEdges != 0 {
		t.Errorf("after misalignment: recorded %d (want the 1 before the first ingest), scored %d (want 0)", st.Recorded, st.ScoredEdges)
	}
}
