package serve

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"linkpred/internal/gen"
	"linkpred/internal/predict"
)

// TestPredictQueryEncodeRoundTrip: Encode is the parser's inverse, and for
// the shape the router sends it is byte-equal to the Sprintf call it
// replaced.
func TestPredictQueryEncodeRoundTrip(t *testing.T) {
	for _, q := range []PredictQuery{
		{Alg: "CN", K: 50, Shards: 1},
		{Alg: "Katz", K: 7, Shard: 2, Shards: 5},
		{Alg: "A B&C=D/é", K: 1, TimeoutMS: 250, Shard: 0, Shards: 3},
		{Alg: "AA", K: 200, TimeoutMS: 1, Shards: 1},
	} {
		vals, err := url.ParseQuery(q.Encode())
		if err != nil {
			t.Fatalf("%+v: encoded %q does not parse: %v", q, q.Encode(), err)
		}
		got, err := ParsePredictQuery(vals)
		if err != nil || got != q {
			t.Errorf("Parse(Encode(%+v)) = %+v, %v (encoded %q)", q, got, err, q.Encode())
		}
	}
	for _, alg := range []string{"CN", "A B", "x&k=9"} {
		replicated := PredictQuery{Alg: alg, K: 25, Shard: 1, Shards: 4}.Encode()
		if want := fmt.Sprintf("alg=%s&k=%d&shard=%d&shards=%d", url.QueryEscape(alg), 25, 1, 4); replicated != want {
			t.Errorf("replicated shape: %q, want %q", replicated, want)
		}
		bare := PredictQuery{Alg: alg, K: 25}.Encode()
		if want := fmt.Sprintf("alg=%s&k=%d", url.QueryEscape(alg), 25); bare != want {
			t.Errorf("bare shape: %q, want %q", bare, want)
		}
		// Shards 0 reads back as the parser's default: the whole sweep.
		vals, _ := url.ParseQuery(bare)
		if got, err := ParsePredictQuery(vals); err != nil || got != (PredictQuery{Alg: alg, K: 25, Shards: 1}) {
			t.Errorf("Parse(%q) = %+v, %v", bare, got, err)
		}
	}
}

// TestHostileSizesServedByResult (ROADMAP item 6a): a request's k and shard
// count size nothing. k=2·10⁹ answers byte-for-byte what k = the candidate
// count answers, and shard 0 of 2·10⁹ answers its (empty) range with 200,
// each inside a heap budget three orders of magnitude under what sizing by
// the request would take.
func TestHostileSizesServedByResult(t *testing.T) {
	tr, err := gen.Generate(gen.Renren(1).Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{SnapshotEvery: 1 << 20, Workers: 1})
	if _, rej, err := s.Ingest(traceEvents(tr)); err != nil || rej != 0 {
		t.Fatalf("ingest: rejected=%d err=%v", rej, err)
	}
	snap := s.Flush()
	get := func(query string) (int, string) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/predict?"+query, nil))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("%s allocated %d bytes, want under 8 MiB", query, grew)
		}
		return rec.Code, rec.Body.String()
	}
	candidates := len(predict.CN.Predict(snap.Graph, 1<<20, s.cfg.Opt))
	if candidates < 1000 || candidates >= 1<<20 {
		t.Fatalf("fixture has %d CN candidates; want a count the 1<<20 probe cannot have clipped", candidates)
	}
	wantCode, want := get(fmt.Sprintf("alg=CN&k=%d", candidates))
	if code, body := get("alg=CN&k=2000000000"); code != 200 || wantCode != 200 || body != want {
		t.Errorf("k=2e9: status %d (k=%d: %d), bodies equal: %v", code, candidates, wantCode, body == want)
	}
	code, body := get("alg=CN&k=10&shard=0&shards=2000000000")
	if code != 200 || !strings.Contains(body, `"shard_range":[0,0]`) || !strings.Contains(body, `"pairs":[]`) {
		t.Errorf("shard 0 of 2e9: status %d body %s", code, body)
	}
}
