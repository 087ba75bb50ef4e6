package cluster

import (
	"net/http/httptest"
	"testing"
)

// TestMalformedPredictQueriesMatchShard drives the same malformed /predict
// queries through a shard's handler and the router's: both parse with
// serve.ParsePredictQuery and answer through serve.WriteError, so status
// and body must be identical byte for byte.
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
