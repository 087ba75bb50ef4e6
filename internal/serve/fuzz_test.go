package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"linkpred/internal/gen"
	"linkpred/internal/predict"
)

// newFuzzServer is the fuzz targets' shared fixture: the 260-node renren
// trace of TestHostileSizesServedByResult, ingested and flushed on a
// one-worker server.
func newFuzzServer(f *testing.F) *Server {
	tr, err := gen.Generate(gen.Renren(1).Scaled(0.05))
	if err != nil {
		f.Fatal(err)
	}
	s := newTestServer(f, Config{SnapshotEvery: 1 << 20, Workers: 1})
	if _, rej, err := s.Ingest(traceEvents(tr)); err != nil || rej != 0 {
		f.Fatalf("ingest: rejected=%d err=%v", rej, err)
	}
	s.Flush()
	return s
}

// registryNames lists every algorithm name the default resolver serves.
func registryNames() []string {
	var names []string
	for _, alg := range append(append(predict.All(), predict.Extensions()...), predict.KatzExact) {
		names = append(names, alg.Name())
	}
	return names
}

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
	s := newFuzzServer(f)
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
	for _, alg := range registryNames() {
		// One request per algorithm builds its per-snapshot artifacts (factor
		// matrices, naive Bayes census), so the budget below prices requests.
		serve("alg=" + alg + "&k=1")
		f.Add("alg=" + alg)
		f.Add("alg=" + alg + "&k=7&shard=1&shards=3")
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

// FuzzScoreBody drives the /score handler — JSON decode, ID lookup, batch
// coalescing, engine, encoder — with arbitrary POST bodies on the fixture
// FuzzPredictQuery uses. Whatever the body: no panic, a documented status,
// and a 200 that carries exactly one score per requested pair, echoing the
// pair in request order, with 0 for any pair naming an unknown ID.
//
// The ceiling is 20 MiB per input. The artifacts every row reads are built
// before fuzzing starts, so a body costs what its distinct sources cost.
// Measured on this fixture with all 260 nodes as sources: PPR allocates
// 15.8 MB (~61 KB of push maps per source), SP 0.6 MB, every other row
// under 130 KB; a five-pair body stays under 210 KB on every row.
func FuzzScoreBody(f *testing.F) {
	const heapBudget = 20 << 20
	s := newFuzzServer(f)
	h := s.Handler()
	serve := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/score", bytes.NewReader(body)))
		return rec
	}
	for _, alg := range registryNames() {
		body := `{"alg":"` + alg + `","pairs":[[0,1],[3,40],[7,7],[-1,2],[5,9223372036854775807]]}`
		serve([]byte(body)) // builds the row's per-snapshot artifacts
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := serve(body)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > heapBudget {
			t.Errorf("%q allocated %d bytes, want under %d", body, grew, heapBudget)
		}
		switch rec.Code {
		case 400, 429, 503, 504:
			return
		case 200:
		default:
			t.Fatalf("%q: status %d", body, rec.Code)
		}
		var req scoreRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("%q: 200 for a body that does not decode: %v", body, err)
		}
		var res Result
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("%q: 200 with an undecodable body: %v", body, err)
		}
		if len(res.Pairs) != len(req.Pairs) {
			t.Fatalf("%q: %d scores for %d pairs", body, len(res.Pairs), len(req.Pairs))
		}
		for i, p := range req.Pairs {
			got := res.Pairs[i]
			if got.U != p[0] || got.V != p[1] {
				t.Errorf("%q: score %d echoes (%d,%d), want %v", body, i, got.U, got.V, p)
			}
			_, uok := s.ids.Lookup(p[0])
			_, vok := s.ids.Lookup(p[1])
			if (!uok || !vok) && got.Score != 0 {
				t.Errorf("%q: unknown-ID pair %v scored %v, want 0", body, p, got.Score)
			}
		}
	})
}
