package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"linkpred/internal/predict"
	"linkpred/internal/serve"
)

// handlerTransport is an in-process network: a request to http://host goes
// straight to hosts[host].ServeHTTP, with no socket and no sleep.
type handlerTransport map[string]http.Handler

func (tr handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body == nil {
		req.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	tr[req.URL.Host].ServeHTTP(rec, req)
	return rec.Result(), nil
}

// FuzzRouterPredictQuery drives arbitrary /predict query strings through
// Router.Handler() over two in-process shards and, as the reference,
// through one node's handler; every server ingested the same 900 events.
// Degradation is off on all three, so an answer depends on the query alone.
// Whatever the query: no panic and a documented router status. When both
// tiers answer 400 the bodies are byte-equal; so are they when both answer
// 200, unless a tiny timeout_ms cut one shard off and the router's answer
// says so with partial:true and its missing ranges.
//
// The ceiling is 128 MiB per input, counted process-wide around the router
// call: both shards' sweeps, their encoded bodies in the in-process
// transport, the router's reads, merge and encode. Measured on this
// fixture (≤ 300 nodes, 897 edges) with every registry row's artifacts built
// first: PPR costs 27 MB at the default k and 82 MB at k = 2·10⁹, of which
// the shards are 43 MB (each runs the whole push sweep, as DESIGN.md §12
// says) and the rest is reading, merging and re-encoding 2.8 MB of shard
// bodies into a 2.1 MB answer. At k = 2·10⁹ PA reaches 51 MB, KatzExact
// 49, SP 47, Katz, KatzSC and Rescal 36, the propagation walks 22–24 and
// the local family 4.5; at the default k everything but PPR stays under
// 1.3 MB. Under -race the same seeds allocate more (PPR at k = 2·10⁹
// measured 97–101 MB, PA 65), hence the headroom. FuzzPredictQuery holds
// one node to 32 MiB.
func FuzzRouterPredictQuery(f *testing.F) {
	const heapBudget = 128 << 20
	const seed = 7
	newNode := func() *serve.Server {
		cfg := serve.Config{SnapshotEvery: 1 << 20, Workers: 1, Degrade: serve.DegradeConfig{Disabled: true}}
		cfg.Opt.Seed = seed
		s, err := serve.New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(s.Close)
		return s
	}
	shard0, shard1, ref := newNode(), newNode(), newNode()
	router := New(Config{
		Shards: []string{"http://s0", "http://s1"}, Seed: seed, HedgeAfter: -1,
		Client: &http.Client{Transport: handlerTransport{"s0": shard0.Handler(), "s1": shard1.Handler()}},
	})
	events := randomEvents(11, 900)
	ctx := context.Background()
	if _, err := router.Ingest(ctx, events); err != nil {
		f.Fatal(err)
	}
	if _, _, err := ref.Ingest(events); err != nil {
		f.Fatal(err)
	}
	if _, err := router.Flush(ctx); err != nil {
		f.Fatal(err)
	}
	ref.Flush()
	rh, sh := router.Handler(), ref.Handler()
	request := func(query string) *http.Request {
		req := httptest.NewRequest("GET", "/predict", nil)
		req.URL.RawQuery = query // NewRequest itself panics on a malformed target
		return req
	}
	do := func(h http.Handler, query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, request(query))
		return rec
	}
	for _, alg := range append(predict.All(), predict.KatzExact) {
		// One request per algorithm on each tier builds its per-snapshot
		// artifacts, so the budget below prices requests, not caches.
		do(rh, "alg="+alg.Name()+"&k=1")
		do(sh, "alg="+alg.Name()+"&k=1")
		f.Add("alg=" + alg.Name())
		f.Add("alg=" + alg.Name() + "&k=7&shard=1&shards=3")
	}
	for _, q := range []string{
		"alg=CN&k=2000000000", "alg=PPR&k=2000000000", "alg=PA&k=2000000000",
		"alg=SP&k=2000000000", "alg=Katz&k=2000000000", "alg=KatzExact&k=2000000000",
		"alg=AA&k=0", "alg=AA&k=-3", "alg=AA&k=+5", "alg=AA&k=99999999999999999999",
		"alg=CN&shard=0&shards=2", "alg=CN&shard=2&shards=2", "alg=CN&shards=0", "alg=CN&shard=-1",
		"alg=Katz&k=10&timeout_ms=1", "alg=PPR&timeout_ms=1", "alg=CN&timeout_ms=0",
		"", "k=5", "alg=", "alg=%zz", "alg=cn", "alg=CN&alg=AA", "alg=NoSuch", "alg=%ff%fe", "alg=<b>&k=3",
		";;&&==", "alg=CN;k=3",
	} {
		f.Add(q)
	}
	// Names the registry once served: the router must reject them as
	// unknown, exactly as a shard does.
	for _, alg := range []string{"Salton", "Sorensen", "HPI", "HDI", "LHN", "SRW"} {
		if rec := do(rh, "alg="+alg); rec.Code != 400 {
			f.Fatalf("retired %s: router status %d, want 400", alg, rec.Code)
		}
		f.Add("alg=" + alg)
		f.Add("alg=" + alg + "&k=7&shard=1&shards=3")
	}
	f.Fuzz(func(t *testing.T, query string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := do(rh, query)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > heapBudget {
			t.Errorf("%q allocated %d bytes, want under %d", query, grew, heapBudget)
		}
		switch got.Code {
		case 200, 400, 429, 502, 503, 504:
		default:
			t.Fatalf("%q: router status %d: %s", query, got.Code, got.Body)
		}
		// The router answers the whole sweep whatever shard/shards says, so
		// the reference is asked the same query without them.
		refQuery := query
		if q, err := serve.ParsePredictQuery(request(query).URL.Query()); err == nil {
			refQuery = serve.PredictQuery{Alg: q.Alg, K: q.K, TimeoutMS: q.TimeoutMS}.Encode()
		}
		want := do(sh, refQuery)
		if got.Code != want.Code || (got.Code != 200 && got.Code != 400) {
			return
		}
		if got.Code == 200 {
			var res Response
			if err := json.Unmarshal(got.Body.Bytes(), &res); err != nil {
				t.Fatalf("%q: 200 with an undecodable body: %v", query, err)
			}
			if res.Partial {
				if len(res.MissingRanges) == 0 {
					t.Errorf("%q: partial answer without missing ranges: %s", query, got.Body)
				}
				return
			}
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%q: status %d, bodies differ\nrouter %s\nsingle %s", query, got.Code, got.Body, want.Body)
		}
	})
}
