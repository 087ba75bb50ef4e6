package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/serve"
)

// The router scripts characterise the gather paths no real-server test can
// reach deterministically: retry, hedge, the 4xx short-circuit, epoch
// re-asks, dead-shard range reconstruction and /score fail-over. The shards
// are a scripted http.RoundTripper in Config.Client: shard i answers its
// k-th request with the k-th step of its script, and the script's length is
// the exact number of requests the router may send it. Responses are released by channels, never slept for,
// so the table is order-independent of wall time (CI runs it under -race
// -count=20).

// step answers one scripted shard request.
type step func(n *scriptNet, host string, req *http.Request) (*http.Response, error)

// answer replies with status and body.
func answer(status int, body string) step {
	return func(_ *scriptNet, _ string, _ *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: status,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(strings.NewReader(body)),
		}, nil
	}
}

// refuse fails the round trip the way a dead shard does.
func refuse(_ *scriptNet, host string, _ *http.Request) (*http.Response, error) {
	return nil, fmt.Errorf("dial %s: connection refused", host)
}

// silent never answers: it holds the request until the router cancels it,
// then reports the cancellation on n.cancelled.
func silent(n *scriptNet, host string, req *http.Request) (*http.Response, error) {
	<-req.Context().Done()
	n.cancelled <- host
	return nil, req.Context().Err()
}

// scriptNet is the scripted network behind one router.
type scriptNet struct {
	mu        sync.Mutex
	steps     map[string][]step
	seen      map[string][]string // per host: "METHOD uri[ body]" in arrival order
	cancelled chan string
}

func (n *scriptNet) RoundTrip(req *http.Request) (*http.Response, error) {
	line := req.Method + " " + req.URL.RequestURI()
	if req.Body != nil {
		body, _ := io.ReadAll(req.Body)
		req.Body.Close()
		if len(body) > 0 {
			line += " " + string(body)
		}
	}
	host := req.URL.Host
	n.mu.Lock()
	k := len(n.seen[host])
	n.seen[host] = append(n.seen[host], line)
	var st step
	if k < len(n.steps[host]) {
		st = n.steps[host][k]
	}
	n.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("script: unscripted request %d to %s: %s", k+1, host, line)
	}
	return st(n, host, req)
}

// encode renders v the way both tiers' handlers do (json.Encoder: one
// trailing newline).
func encode(v any) string {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.String()
}

const scriptNodesPerShard = 2

// shardPair is the one ranked pair shard i contributes: distinct scores,
// descending in shard index, so the merged order is shard order and never
// depends on the tie hash.
func shardPair(i int, dense bool) serve.PairScore {
	lo := scriptNodesPerShard * i
	p := serve.PairScore{U: int64(100 + lo), V: int64(101 + lo), Score: float64(10 - i)}
	if dense {
		p.DU, p.DV = graph.NodeID(lo), graph.NodeID(lo+1)
	}
	return p
}

// partial is shard i of n's restricted /predict body at snapshot seq.
func partial(i, n int, seq int64) step {
	lo := scriptNodesPerShard * i
	return answer(200, encode(serve.Result{
		Alg: "CN", ServedBy: "CN", SnapshotSeq: seq, SnapshotEdges: 10 + int(seq), SnapshotTime: 7,
		SnapshotNodes: scriptNodesPerShard * n,
		ShardRange:    &[2]int{lo, lo + scriptNodesPerShard},
		Pairs:         []serve.PairScore{shardPair(i, true)},
	}))
}

// merged is the router body for a gather at seq that kept the listed shards.
func merged(seq int64, missing [][2]int, shards ...int) string {
	out := Response{Partial: len(missing) > 0, MissingRanges: missing}
	out.Result = serve.Result{Alg: "CN", ServedBy: "CN", SnapshotSeq: seq, SnapshotEdges: 10 + int(seq), SnapshotTime: 7, Pairs: []serve.PairScore{}}
	for _, i := range shards {
		out.Pairs = append(out.Pairs, shardPair(i, false))
	}
	return encode(out)
}

// scores is one /score body: one score per pair of scoreBody.
func scores(seq int64, vals ...float64) string {
	res := serve.Result{Alg: "CN", ServedBy: "CN", SnapshotSeq: seq, SnapshotEdges: 10, SnapshotTime: 7}
	for i, v := range vals {
		res.Pairs = append(res.Pairs, serve.PairScore{U: int64(100 + 2*i), V: int64(101 + 2*i), Score: v})
	}
	return encode(res)
}

const (
	predictCN   = "/predict?alg=CN&k=10"
	scoreBody   = `{"alg":"CN","pairs":[[100,101],[102,103]]}`
	ingestBody  = `{"events":[{"u":1,"v":2,"t":3},{"u":2,"v":3,"t":4}]}`
	unknownAlg  = `{"error":"predict: unknown algorithm \"CN\""}` + "\n"
	overloaded  = `{"error":"serve: request queue full"}` + "\n"
	allDown     = `{"error":"cluster: all shards down"}` + "\n"
	healthyBody = `{"ok":true,"snapshot_seq":5,"snapshot_edges":15,"snapshot_time":7,"trace_edges":15,"nodes":4,"degraded":false,"queue_depth":0,"snapshot_bytes":64}` + "\n"
)

// unrestricted is a single node's whole-sweep /predict body (no shard_range,
// no dense IDs), here a degraded one.
var unrestricted = encode(serve.Result{
	Alg: "Katz", ServedBy: "AA", Degraded: true, SnapshotSeq: 3, SnapshotEdges: 9, SnapshotTime: 7,
	Pairs: []serve.PairScore{{U: 100, V: 101, Score: 2}, {U: 7, V: 9, Score: 0.5}},
})

func shardHealth(i int) string {
	return fmt.Sprintf(`{"shard":%d,"url":"http://s%d","up":true,%s`, i, i, healthyBody[1:len(healthyBody)-1])
}

type routerScript struct {
	name   string
	cfg    func(*Config)
	shards [][]step // shards[i] scripts shard i; its length is the exact request count
	// method/target/body is the client's request to the router's handler.
	method, target, body string
	status               int
	want                 string
	// seen, when set, pins every shard's request lines.
	seen [][]string
	// metrics pins cluster/* counters (and histogram sample counts) after
	// the request; unlisted families are not checked.
	metrics map[string]int64
	// cancels is how many silent requests the router must cancel.
	cancels int
}

var routerScripts = []routerScript{
	{
		name:   "full gather sends one restricted request per shard",
		shards: [][]step{{partial(0, 2, 5)}, {partial(1, 2, 5)}},
		target: predictCN, status: 200, want: merged(5, nil, 0, 1),
		seen: [][]string{
			{"GET /predict?alg=CN&k=10&shard=0&shards=2"},
			{"GET /predict?alg=CN&k=10&shard=1&shards=2"},
		},
		metrics: map[string]int64{
			"cluster/scatter_requests": 1, "cluster/gather_full": 1, "cluster/gather_partial": 0,
			"cluster/shard_retries": 0, "cluster/shard_hedges": 0, "cluster/epoch_reasks": 0,
			"cluster/shard_latency_ns": 2,
		},
	},
	{
		name:   "shard fails once then answers: one retry, full gather",
		shards: [][]step{{partial(0, 2, 5)}, {refuse, partial(1, 2, 5)}},
		target: predictCN, status: 200, want: merged(5, nil, 0, 1),
		metrics: map[string]int64{
			"cluster/shard_retries": 1, "cluster/shard_hedges": 0, `cluster/shard_errors{shard="1"}`: 1,
			"cluster/gather_full": 1, "cluster/shard_latency_ns": 2,
		},
	},
	{
		// One shard, so the only request in flight is the one being hedged:
		// no other shard's answer can race the 1 ms timer into a second,
		// unscripted hedge.
		name:   "shard silent past HedgeAfter: exactly two requests, first answer wins, loser cancelled",
		cfg:    func(c *Config) { c.HedgeAfter = time.Millisecond },
		shards: [][]step{{silent, answer(200, unrestricted)}},
		target: "/predict?alg=Katz&k=2", status: 200, want: unrestricted,
		metrics: map[string]int64{
			"cluster/shard_hedges": 1, "cluster/shard_retries": 0, `cluster/shard_errors{shard="0"}`: 0,
			"cluster/gather_full": 1, "cluster/shard_latency_ns": 1,
		},
		cancels: 1,
	},
	{
		name:   "4xx from the shards: no retry, status and body passed through",
		shards: [][]step{{answer(400, unknownAlg)}, {answer(400, unknownAlg)}},
		target: predictCN, status: 400, want: unknownAlg,
		metrics: map[string]int64{
			"cluster/shard_retries": 0, "cluster/shard_hedges": 0, "cluster/gather_full": 0,
			"cluster/gather_partial": 0, "cluster/shard_latency_ns": 0,
		},
	},
	{
		name:   "4xx from one shard only: not retried, its range goes missing",
		shards: [][]step{{partial(0, 2, 5)}, {answer(429, overloaded)}},
		target: predictCN, status: 200, want: merged(5, [][2]int{{2, 4}}, 0),
		metrics: map[string]int64{"cluster/shard_retries": 0, "cluster/gather_partial": 1},
	},
	{
		name:   "5xx is retried like a transport failure",
		shards: [][]step{{partial(0, 2, 5)}, {answer(503, `{"error":"serve: server closed"}`), partial(1, 2, 5)}},
		target: predictCN, status: 200, want: merged(5, nil, 0, 1),
		metrics: map[string]int64{"cluster/shard_retries": 1, "cluster/gather_full": 1},
	},
	{
		name:   "shard one epoch behind, then caught up: re-asked once",
		shards: [][]step{{partial(0, 2, 5)}, {partial(1, 2, 4), partial(1, 2, 5)}},
		target: predictCN, status: 200, want: merged(5, nil, 0, 1),
		metrics: map[string]int64{
			"cluster/epoch_reasks": 1, "cluster/gather_full": 1, "cluster/shard_retries": 0,
			"cluster/shard_latency_ns": 3,
		},
	},
	{
		name:   "a re-ask raises the target: the other shard is re-asked in turn",
		shards: [][]step{{partial(0, 2, 5), partial(0, 2, 6)}, {partial(1, 2, 4), partial(1, 2, 6)}},
		target: predictCN, status: 200, want: merged(6, nil, 0, 1),
		metrics: map[string]int64{"cluster/epoch_reasks": 2, "cluster/gather_full": 1},
	},
	{
		name:   "shard behind for all EpochRetries: partial with its exact range",
		shards: [][]step{{partial(0, 2, 5)}, {partial(1, 2, 4), partial(1, 2, 4), partial(1, 2, 4)}},
		target: predictCN, status: 200, want: merged(5, [][2]int{{2, 4}}, 0),
		metrics: map[string]int64{"cluster/epoch_reasks": 2, "cluster/gather_partial": 1, "cluster/gather_full": 0},
	},
	{
		name:   "middle and last shard dead: ranges rebuilt from the neighbours",
		shards: [][]step{{partial(0, 4, 5)}, {refuse, refuse}, {partial(2, 4, 5)}, {refuse, refuse}},
		target: predictCN, status: 200, want: merged(5, [][2]int{{2, 4}, {6, 8}}, 0, 2),
		metrics: map[string]int64{
			"cluster/shard_retries": 2, `cluster/shard_errors{shard="1"}`: 2, `cluster/shard_errors{shard="3"}`: 2,
			"cluster/gather_partial": 1,
		},
	},
	{
		name:   "first two shards dead: the gap opens at node 0",
		shards: [][]step{{refuse, refuse}, {refuse, refuse}, {partial(2, 3, 5)}},
		target: predictCN, status: 200, want: merged(5, [][2]int{{0, 4}}, 2),
	},
	{
		name:   "all shards dead: 502",
		shards: [][]step{{refuse, refuse}, {refuse, refuse}},
		target: predictCN, status: 502, want: allDown,
		metrics: map[string]int64{"cluster/scatter_requests": 1, "cluster/gather_full": 0, "cluster/gather_partial": 0},
	},
	{
		name:   "one shard: the unrestricted body passes through byte for byte",
		shards: [][]step{{answer(200, unrestricted)}},
		target: "/predict?alg=Katz&k=2", status: 200, want: unrestricted,
		seen:    [][]string{{"GET /predict?alg=Katz&k=2&shard=0&shards=1"}},
		metrics: map[string]int64{"cluster/gather_full": 1},
	},
	{
		name:   "/score fails over to the next shard",
		shards: [][]step{{refuse}, {answer(200, scores(5, 3.0, 4.0))}},
		method: "POST", target: "/score", body: scoreBody,
		status: 200, want: scores(5, 3.0, 4.0),
		seen:    [][]string{{"POST /score " + scoreBody}, {"POST /score " + scoreBody}},
		metrics: map[string]int64{"cluster/score_forwarded": 1},
	},
	{
		name:   "/score forwards a shard's non-200 without failing over",
		shards: [][]step{{answer(429, overloaded)}, {}},
		method: "POST", target: "/score", body: scoreBody,
		status: 429, want: overloaded,
		metrics: map[string]int64{"cluster/score_forwarded": 1},
	},
	{
		name:   "/score with every shard dead: 502",
		shards: [][]step{{refuse}, {refuse}},
		method: "POST", target: "/score", body: scoreBody,
		status: 502, want: `{"error":"cluster: score forward failed on all shards: Post \"http://s1/score\": dial s1: connection refused"}` + "\n",
	},
	{
		name:   "ingest replicates to every shard and reports the one that failed",
		shards: [][]step{{refuse}, {answer(200, `{"accepted":2,"rejected":0,"snapshot_seq":3,"trace_edges":2}`+"\n")}},
		method: "POST", target: "/ingest", body: ingestBody,
		status: 200, want: `{"accepted":2,"rejected":0,"snapshot_seq":3,"trace_edges":2,"shard_errors":1}` + "\n",
		seen:    [][]string{{"POST /ingest " + ingestBody}, {"POST /ingest " + ingestBody}},
		metrics: map[string]int64{"cluster/ingest_errors": 1, "cluster/ingest_replicated": 1},
	},
	{
		name:   "ingest refused by every shard: 502",
		shards: [][]step{{answer(500, `{"error":"serve: write-ahead log failure; ingest disabled"}`)}, {refuse}},
		method: "POST", target: "/ingest", body: ingestBody,
		status: 502, want: allDown,
		metrics: map[string]int64{"cluster/ingest_errors": 2, "cluster/ingest_replicated": 0},
	},
	{
		name: "flush reports the newest epoch among the shards that answered",
		shards: [][]step{
			{answer(200, `{"snapshot_seq":4,"snapshot_edges":14,"nodes":4}`+"\n")},
			{answer(200, `{"snapshot_seq":5,"snapshot_edges":15,"nodes":4}`+"\n")},
			{refuse},
		},
		method: "POST", target: "/flush",
		status: 200, want: `{"snapshot_seq":5}` + "\n",
		seen: [][]string{{"POST /flush"}, {"POST /flush"}, {"POST /flush"}},
	},
	{
		name:   "healthz aggregates the shard probes",
		shards: [][]step{{answer(200, healthyBody)}, {answer(200, healthyBody)}},
		target: "/healthz", status: 200,
		want: `{"ok":true,"shards":2,"shards_up":2,"epoch_skew":0,"snapshot_bytes":128,"workers":[` +
			shardHealth(0) + "," + shardHealth(1) + "]}\n",
		seen: [][]string{{"GET /healthz"}, {"GET /healthz"}},
	},
	{
		name:   "healthz with a dead shard",
		shards: [][]step{{answer(200, healthyBody)}, {refuse}},
		target: "/healthz", status: 200,
		want: `{"ok":false,"shards":2,"shards_up":1,"epoch_skew":0,"snapshot_bytes":64,"workers":[` + shardHealth(0) +
			`,{"shard":1,"url":"http://s1","up":false,"err":"Get \"http://s1/healthz\": dial s1: connection refused",` +
			`"ok":false,"snapshot_seq":0,"snapshot_edges":0,"snapshot_time":0,"trace_edges":0,"nodes":0,"degraded":false,"queue_depth":0,"snapshot_bytes":0}]}` + "\n",
	},
	{
		name:   "healthz: a shard answering non-200 is down, with the status in err",
		shards: [][]step{{answer(200, healthyBody)}, {answer(500, `{"error":"boom"}`+"\n")}},
		target: "/healthz", status: 200,
		want: `{"ok":false,"shards":2,"shards_up":1,"epoch_skew":0,"snapshot_bytes":64,"workers":[` + shardHealth(0) +
			`,{"shard":1,"url":"http://s1","up":false,"err":"cluster: healthz status 500: {\"error\":\"boom\"}",` +
			`"ok":false,"snapshot_seq":0,"snapshot_edges":0,"snapshot_time":0,"trace_edges":0,"nodes":0,"degraded":false,"queue_depth":0,"snapshot_bytes":0}]}` + "\n",
	},
}

// TestRouterScript drives every script through the router's HTTP handler
// and pins the response, the per-shard request count (and lines, where
// given) and the cluster/* telemetry.
func TestRouterScript(t *testing.T) {
	obs.Enable(true)
	defer obs.Enable(false)
	for _, sc := range routerScripts {
		t.Run(sc.name, func(t *testing.T) {
			obs.Reset()
			// cancelled is buffered past any script's silent steps, so a
			// cancellation the script does not expect cannot block a shard.
			net := &scriptNet{steps: map[string][]step{}, seen: map[string][]string{}, cancelled: make(chan string, 8)}
			cfg := Config{
				Seed: 1, Client: &http.Client{Transport: net}, Timeout: 30 * time.Second,
				HedgeAfter: -1, EpochRetries: 2, EpochBackoff: time.Millisecond,
			}
			for i, steps := range sc.shards {
				host := fmt.Sprintf("s%d", i)
				cfg.Shards = append(cfg.Shards, "http://"+host)
				net.steps[host] = steps
			}
			if sc.cfg != nil {
				sc.cfg(&cfg)
			}
			method := sc.method
			if method == "" {
				method = http.MethodGet
			}
			rec := httptest.NewRecorder()
			New(cfg).Handler().ServeHTTP(rec, httptest.NewRequest(method, sc.target, strings.NewReader(sc.body)))

			if rec.Code != sc.status || rec.Body.String() != sc.want {
				t.Errorf("response:\n got %d %s\nwant %d %s", rec.Code, rec.Body.String(), sc.status, sc.want)
			}
			for i := 0; i < sc.cancels; i++ {
				select {
				case <-net.cancelled:
				case <-time.After(10 * time.Second):
					t.Fatalf("router never cancelled silent request %d of %d", i+1, sc.cancels)
				}
			}
			net.mu.Lock()
			defer net.mu.Unlock()
			for i, steps := range sc.shards {
				got := net.seen[fmt.Sprintf("s%d", i)]
				if len(got) != len(steps) {
					t.Errorf("shard %d: %d requests, script allows exactly %d: %q", i, len(got), len(steps), got)
				}
				if sc.seen != nil && !reflect.DeepEqual(got, sc.seen[i]) {
					t.Errorf("shard %d request lines:\n got %q\nwant %q", i, got, sc.seen[i])
				}
			}
			for name, want := range sc.metrics {
				if got := scriptMetric(name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
		})
	}
}

// scriptMetric reads a counter's value or a histogram's sample count.
func scriptMetric(name string) int64 {
	if h, ok := obs.LookupHistogram(name); ok {
		return h.Count()
	}
	if c, ok := obs.LookupCounter(name); ok {
		return c.Value()
	}
	return 0
}

// TestRouterScriptDirectCalls pins what the exported methods (the
// benchmark's in-process entry points) return for a dead cluster, which
// the handler folds into a status.
func TestRouterScriptDirectCalls(t *testing.T) {
	net := &scriptNet{steps: map[string][]step{"s0": {refuse, refuse, refuse}}, seen: map[string][]string{}}
	r := New(Config{Shards: []string{"http://s0"}, Client: &http.Client{Transport: net}, HedgeAfter: -1})
	ctx := context.Background()
	if _, err := r.Predict(ctx, "CN", 5); !errors.Is(err, ErrAllShardsDown) {
		t.Errorf("Predict on a dead cluster: %v, want ErrAllShardsDown", err)
	}
	if _, err := r.Ingest(ctx, []serve.Event{{U: 1, V: 2, T: 3}}); !errors.Is(err, ErrAllShardsDown) {
		t.Errorf("Ingest on a dead cluster: %v, want ErrAllShardsDown", err)
	}
	if got := len(net.seen["s0"]); got != 3 {
		t.Errorf("dead shard saw %d requests, want 3 (predict + retry, ingest)", got)
	}
}

// TestMissingRanges is the dead-shard boundary reconstruction on its own:
// a run of unanswered shards owns the gap between its answered neighbours.
func TestMissingRanges(t *testing.T) {
	at := func(seq int64, lo, hi int) *serve.Result {
		return &serve.Result{SnapshotSeq: seq, SnapshotNodes: 100, ShardRange: &[2]int{lo, hi}}
	}
	for _, tt := range []struct {
		name string
		got  []*serve.Result
		want [][2]int
	}{
		{"all aligned", []*serve.Result{at(5, 0, 40), at(5, 40, 100)}, nil},
		{"first dead", []*serve.Result{nil, at(5, 40, 100)}, [][2]int{{0, 40}}},
		{"last dead", []*serve.Result{at(5, 0, 40), nil}, [][2]int{{40, 100}}},
		{"middle run dead", []*serve.Result{at(5, 0, 10), nil, nil, at(5, 70, 100)}, [][2]int{{10, 70}}},
		{"two separate gaps", []*serve.Result{at(5, 0, 10), nil, at(5, 30, 60), nil}, [][2]int{{10, 30}, {60, 100}}},
		{"stale counts as unanswered", []*serve.Result{at(5, 0, 10), at(4, 10, 50), at(5, 55, 100)}, [][2]int{{10, 55}}},
		{"dead shard that owned nothing", []*serve.Result{at(5, 0, 40), nil, at(5, 40, 100)}, nil},
		{"dead tail that owned nothing", []*serve.Result{at(5, 0, 100), nil}, nil},
		{"answer without a range is unaccounted for", []*serve.Result{at(5, 0, 40), {SnapshotSeq: 5, SnapshotNodes: 100}}, [][2]int{{40, 100}}},
		{"nobody aligned", []*serve.Result{nil, at(4, 50, 100)}, nil},
	} {
		if got := missingRanges(tt.got, 5); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%s: %v, want %v", tt.name, got, tt.want)
		}
	}
}
