package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"linkpred/internal/obs"
	"linkpred/internal/serve"
)

// TestMalformedPredictQueriesMatchShard drives the same malformed /predict
// queries through a shard's handler and the router's: both parse with
// serve.ParsePredictQuery and answer through serve.WriteError, so status
// and body must be identical byte for byte. The last row names LHN, an
// algorithm the registry no longer carries: the router passes the shard's
// 400 through.
func TestMalformedPredictQueriesMatchShard(t *testing.T) {
	tc := newTestCluster(t, 2, 1)
	router := httptest.NewServer(tc.router.Handler())
	defer router.Close()
	for _, tt := range []struct{ query, body string }{
		{"k=5", `{"error":"missing alg parameter"}`},
		{"alg=CN&k=0", `{"error":"bad k \"0\""}`},
		{"alg=CN&k=x", `{"error":"bad k \"x\""}`},
		{"alg=CN&timeout_ms=-1", `{"error":"bad timeout_ms \"-1\""}`},
		{"alg=CN&timeout_ms=soon", `{"error":"bad timeout_ms \"soon\""}`},
		{"alg=CN&shards=0", `{"error":"bad shards \"0\""}`},
		{"alg=CN&shard=2&shards=2", `{"error":"bad shard \"2\" of 2"}`},
		{"alg=LHN&k=5", `{"error":"predict: unknown algorithm \"LHN\""}`},
	} {
		shardStatus, shardBody := httpGet(t, tc.ts[0].URL+"/predict?"+tt.query)
		routerStatus, routerBody := httpGet(t, router.URL+"/predict?"+tt.query)
		if shardStatus != 400 || string(shardBody) != tt.body+"\n" {
			t.Errorf("shard %q: %d %s, want 400 %s", tt.query, shardStatus, shardBody, tt.body)
		}
		if routerStatus != shardStatus || string(routerBody) != string(shardBody) {
			t.Errorf("router %q: %d %s, shard answered %d %s", tt.query, routerStatus, routerBody, shardStatus, shardBody)
		}
	}
}

// TestWrongMethodMatchesShard sends GET to the three POST-only endpoints of
// a shard and of the router: both tiers register them through
// serve.PostOnly, so each answers 405 with the same body, and each tier
// counts the 405 under its own namespace of the shared serve.Instrument.
func TestWrongMethodMatchesShard(t *testing.T) {
	obs.Enable(true)
	obs.Reset()
	t.Cleanup(func() { obs.Enable(false) })
	tc := newTestCluster(t, 2, 1)
	router := httptest.NewServer(tc.router.Handler())
	defer router.Close()
	const want = `{"error":"POST required"}` + "\n"
	for _, path := range []string{"/score", "/ingest", "/flush"} {
		shardStatus, shardBody := httpGet(t, tc.ts[0].URL+path)
		routerStatus, routerBody := httpGet(t, router.URL+path)
		if shardStatus != 405 || string(shardBody) != want {
			t.Errorf("shard GET %s: %d %s, want 405 %s", path, shardStatus, shardBody, want)
		}
		if routerStatus != shardStatus || string(routerBody) != string(shardBody) {
			t.Errorf("router GET %s: %d %s, shard answered %d %s", path, routerStatus, routerBody, shardStatus, shardBody)
		}
		for _, ns := range []string{"serve", "cluster"} {
			name := ns + `/http/responses{endpoint="` + path[1:] + `",code="405"}`
			if got := obs.GetCounter(name).Value(); got != 1 {
				t.Errorf("%s = %d, want 1", name, got)
			}
		}
	}
}

// TestOversizedBodyMatchesShard sends a /score body one item past
// serve.ScoreBodyCap and an /ingest body one item past serve.IngestBodyCap
// to a shard and to the router. Both tiers cap with the same two constants,
// so each answers 400 with the same bytes; the shard takes no queue slot
// and ingests nothing, and the router forwards and replicates nothing.
func TestOversizedBodyMatchesShard(t *testing.T) {
	obs.Enable(true)
	obs.Reset()
	t.Cleanup(func() { obs.Enable(false) })
	tc := newTestCluster(t, 2, 1)
	for _, tt := range []struct {
		path, prefix, item string
		limit              int
	}{
		{"/score", `{"alg":"CN","pairs":[`, `[1,2],`, serve.ScoreBodyCap},
		{"/ingest", `{"events":[`, `{"u":1,"v":2,"t":3},`, serve.IngestBodyCap},
	} {
		body := []byte(tt.prefix + strings.Repeat(tt.item, (tt.limit-len(tt.prefix))/len(tt.item)+1))
		var got [2]*httptest.ResponseRecorder
		for i, h := range []http.Handler{tc.servers[0].Handler(), tc.router.Handler()} {
			got[i] = httptest.NewRecorder()
			h.ServeHTTP(got[i], httptest.NewRequest("POST", tt.path, bytes.NewReader(body)))
		}
		shard, router := got[0], got[1]
		if shard.Code != 400 || !strings.Contains(shard.Body.String(), "request body too large") {
			t.Errorf("shard %s with %d bytes: %d %s, want 400 request body too large", tt.path, len(body), shard.Code, shard.Body)
		}
		if router.Code != shard.Code || router.Body.String() != shard.Body.String() {
			t.Errorf("router %s: %d %s, shard answered %d %s", tt.path, router.Code, router.Body, shard.Code, shard.Body)
		}
	}
	for name, want := range map[string]int64{
		"serve/queue_depth":   0,
		"serve/ingest_events": 0,
		`serve/http/responses{endpoint="score",code="400"}`:    1,
		`serve/http/responses{endpoint="ingest",code="400"}`:   1,
		"cluster/score_forwarded":                              0,
		"cluster/ingest_replicated":                            0,
		`cluster/http/responses{endpoint="score",code="400"}`:  1,
		`cluster/http/responses{endpoint="ingest",code="400"}`: 1,
	} {
		if got := scriptMetric(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
