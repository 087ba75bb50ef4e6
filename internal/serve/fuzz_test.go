package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"linkpred/internal/gen"
	"linkpred/internal/predict"
)

// FuzzPredictQuery drives the /predict handler — parser, queue, routing,
// range planning, engine, encoder — with arbitrary query strings on the
// 260-node fixture of TestHostileSizesServedByResult (ROADMAP item 6b).
// Whatever the query: no panic, a documented status, a 200 that decodes to
// at most k pairs, and a heap cost that follows the sweep and the answer,
// never a number the query names.
//
// The ceiling is 32 MiB, not the 8 MiB TestHostileSizesServedByResult holds
// CN to: measured on this fixture, a PPR sweep allocates 10 MiB whatever k
// is (a map per push) and 20 MiB when k exceeds its 33 k candidates; PA, SP,
// Katz, KatzSC and Rescal reach 10–11 MiB at k = 2·10⁹, about 8× the 1 MiB
// body they encode; the local family stays under 5 MiB. Sizing anything by
// k or shards would cost gigabytes, which is what the ceiling is for.
func FuzzPredictQuery(f *testing.F) {
	const heapBudget = 32 << 20
	tr, err := gen.Generate(gen.Renren(1).Scaled(0.05))
	if err != nil {
		f.Fatal(err)
	}
	s := newTestServer(f, Config{SnapshotEvery: 1 << 20, Workers: 1})
	if _, rej, err := s.Ingest(traceEvents(tr)); err != nil || rej != 0 {
		f.Fatalf("ingest: rejected=%d err=%v", rej, err)
	}
	s.Flush()
	h := s.Handler()
	request := func(query string) *http.Request {
		req := httptest.NewRequest("GET", "/predict", nil)
		req.URL.RawQuery = query // NewRequest itself panics on a malformed target
		return req
	}
	serve := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, request(query))
		return rec
	}
	for _, alg := range append(append(predict.All(), predict.Extensions()...), predict.KatzExact) {
		// One request per algorithm builds its per-snapshot artifacts (factor
		// matrices, naive Bayes census), so the budget below prices requests.
		serve("alg=" + alg.Name() + "&k=1")
		f.Add("alg=" + alg.Name())
		f.Add("alg=" + alg.Name() + "&k=7&shard=1&shards=3")
	}
	f.Fuzz(func(t *testing.T, query string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := serve(query)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > heapBudget {
			t.Errorf("%q allocated %d bytes, want under %d", query, grew, heapBudget)
		}
		switch rec.Code {
		case 400, 429, 503, 504:
			return
		case 200:
		default:
			t.Fatalf("%q: status %d", query, rec.Code)
		}
		var res Result
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("%q: 200 with an undecodable body: %v", query, err)
		}
		if q, err := ParsePredictQuery(request(query).URL.Query()); err != nil || len(res.Pairs) > q.K {
			t.Errorf("%q: 200 with %d pairs (parsed %+v, err %v)", query, len(res.Pairs), q, err)
		}
	})
}
