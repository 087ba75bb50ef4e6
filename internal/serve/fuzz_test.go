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
	for _, alg := range append(predict.All(), predict.KatzExact) {
		names = append(names, alg.Name())
	}
	return names
}

// retiredNames are algorithm names the registry once served. Both tiers
// must answer them like any unknown name: 400 before a queue slot is used.
var retiredNames = []string{"Salton", "Sorensen", "HPI", "HDI", "LHN", "SRW"}

// FuzzPredictQuery drives the /predict handler — parser, queue, routing,
// range planning, engine, encoder — with arbitrary query strings on the
// 260-node fixture of TestHostileSizesServedByResult (ROADMAP item 6b).
// Whatever the query: no panic, a documented status, a 200 that decodes to
// at most k pairs, and a heap cost that follows the sweep and the answer,
// never a number the query names.
//
// The ceiling is 32 MiB, not the 8 MiB TestHostileSizesServedByResult holds
// CN to: measured on this fixture, a PPR sweep allocates 7.4 MiB whatever k
// is and 17.4 MiB when k exceeds its 33 k candidates; PA, SP, Katz, KatzSC
// and Rescal reach 10–11 MiB at k = 2·10⁹, about 8× the 1 MiB body they
// encode; the local family stays under 5 MiB. Sizing anything by
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
	for _, alg := range retiredNames {
		if rec := serve("alg=" + alg); rec.Code != 400 {
			f.Fatalf("retired %s: status %d, want 400", alg, rec.Code)
		}
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
// 10.9 MB (~42 KB per source), SP 0.6 MB, every other row under 130 KB; a
// five-pair body stays under 210 KB on every row.
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
	for _, alg := range retiredNames {
		body := []byte(`{"alg":"` + alg + `","pairs":[[0,1],[3,40]]}`)
		if rec := serve(body); rec.Code != 400 {
			f.Fatalf("retired %s: status %d, want 400", alg, rec.Code)
		}
		f.Add(body)
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
			_, uok := s.led.Lookup(p[0])
			_, vok := s.led.Lookup(p[1])
			if (!uok || !vok) && got.Score != 0 {
				t.Errorf("%q: unknown-ID pair %v scored %v, want 0", body, p, got.Score)
			}
		}
	})
}

// FuzzIngestBody drives the /ingest handler — JSON decode, per-event
// admission, trace append, publish — with arbitrary POST bodies. One
// server takes every input, so its trace grows the way a live server's
// does. Whatever the body: no panic, status 200 or 400, a 200 that accounts
// for every event (accepted + rejected = events sent), and a trace length
// that never goes down.
//
// The ceiling is 64 KiB plus 64 bytes per body byte, because ingest cost
// follows the body: each accepted event grows the ID map and the trace and
// shares a publish every 512 edges. Measured on this fixture (the 260-node
// renren trace, default cadence): every checked-in seed allocates under
// 16 KB; bodies of 10³, 10⁴ and 3·10⁴ fresh edges (31 KB, 307 KB, 938 KB)
// allocate 0.38, 6.0 and 16.9 MB, 13–20 bytes per body byte, and the same
// bodies replayed as duplicates about half that. A number inside the body
// (a huge ID, a far-off time) must never size an allocation.
func FuzzIngestBody(f *testing.F) {
	tr, err := gen.Generate(gen.Renren(1).Scaled(0.05))
	if err != nil {
		f.Fatal(err)
	}
	s := newTestServer(f, Config{Workers: 1})
	if _, rej, err := s.Ingest(traceEvents(tr)); err != nil || rej != 0 {
		f.Fatalf("ingest: rejected=%d err=%v", rej, err)
	}
	h := s.Handler()
	f.Add([]byte(`{"events":[{"u":0,"v":300,"t":1},{"u":300,"v":301,"t":2},{"u":5,"v":301,"t":3}]}`))
	last := s.Health().TraceEdges
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", bytes.NewReader(body)))
		runtime.ReadMemStats(&after)
		if grew, budget := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(body)); grew > budget {
			t.Errorf("%q allocated %d bytes, want under %d", body, grew, budget)
		}
		if edges := s.Health().TraceEdges; edges < last {
			t.Fatalf("%q: trace_edges went from %d to %d", body, last, edges)
		} else {
			last = edges
		}
		switch rec.Code {
		case 400:
			return
		case 200:
		default:
			t.Fatalf("%q: status %d", body, rec.Code)
		}
		var req ingestRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("%q: 200 for a body that does not decode: %v", body, err)
		}
		var res IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("%q: 200 with an undecodable body: %v", body, err)
		}
		if res.Accepted+res.Rejected != len(req.Events) {
			t.Fatalf("%q: accepted %d + rejected %d for %d events", body, res.Accepted, res.Rejected, len(req.Events))
		}
	})
}
