package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"linkpred/internal/liveeval"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
)

// simSet / prequentialSim independently re-implement the liveeval
// accounting from the *client's* view of the HTTP exchange: recorded
// /predict payloads and the ingest stream in external IDs. The integration
// test replays both sides and demands exact agreement, so a drift anywhere
// in the serve wiring (wrong epoch, wrong trace index, missed edge) shows
// up as a counter mismatch rather than a silently different series.
type simSet struct {
	epoch    int64
	minIndex int
	rank     map[[2]int64]int
}

type simStats struct {
	recorded  int64
	predicted int64
	scored    int64
	hits      int64
	rrSum     float64
}

type prequentialSim struct {
	topK, ring int
	sets       map[string][]*simSet
	stats      map[string]*simStats
}

func newPrequentialSim(topK, ring int) *prequentialSim {
	return &prequentialSim{topK: topK, ring: ring, sets: map[string][]*simSet{}, stats: map[string]*simStats{}}
}

func (ps *prequentialSim) stat(alg string) *simStats {
	st, ok := ps.stats[alg]
	if !ok {
		st = &simStats{}
		ps.stats[alg] = st
	}
	return st
}

func (ps *prequentialSim) record(alg string, epoch int64, snapEdges, traceLen int, pairs []PairScore) {
	if len(pairs) > ps.topK {
		pairs = pairs[:ps.topK]
	}
	for _, s := range ps.sets[alg] {
		if s.epoch == epoch {
			return
		}
	}
	minIndex := snapEdges
	if traceLen > minIndex {
		minIndex = traceLen
	}
	set := &simSet{epoch: epoch, minIndex: minIndex, rank: map[[2]int64]int{}}
	for i, p := range pairs {
		u, v := p.U, p.V
		if u > v {
			u, v = v, u
		}
		if _, dup := set.rank[[2]int64{u, v}]; !dup {
			set.rank[[2]int64{u, v}] = i + 1
		}
	}
	ps.sets[alg] = append(ps.sets[alg], set)
	if len(ps.sets[alg]) > ps.ring {
		ps.sets[alg] = ps.sets[alg][1:]
	}
	st := ps.stat(alg)
	st.recorded++
	st.predicted += int64(len(pairs))
}

func (ps *prequentialSim) observe(u, v int64, traceIndex int) {
	if u > v {
		u, v = v, u
	}
	for alg, sets := range ps.sets {
		var set *simSet
		for i := len(sets) - 1; i >= 0; i-- {
			if sets[i].minIndex <= traceIndex {
				set = sets[i]
				break
			}
		}
		if set == nil {
			continue
		}
		st := ps.stat(alg)
		st.scored++
		if r, ok := set.rank[[2]int64{u, v}]; ok {
			delete(set.rank, [2]int64{u, v})
			st.hits++
			st.rrSum += 1 / float64(r)
		}
	}
}

// liveevalRun drives the fixture trace through the full HTTP path with a
// prequential engine attached: ingest half, flush, predict three algorithm
// families (epoch 1), ingest a quarter, flush, predict again (epoch 2),
// ingest the rest. Returns the engine's stats and the client-side
// simulation's expectations.
func liveevalRun(t *testing.T, engineWorkers int) (map[string]liveeval.AlgStats, map[string]*simStats) {
	t.Helper()
	const topK = 50
	eval := liveeval.New(liveeval.Config{TopK: topK, Ring: 4, Window: 256, HalfLife: 64})
	opt := predict.DefaultOptions()
	opt.Workers = engineWorkers
	s := newTestServer(t, Config{
		SnapshotEvery: 1 << 20, // only /flush publishes
		Workers:       2,
		Opt:           opt,
		Eval:          eval,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	events := traceEvents(testTrace(t))
	sim := newPrequentialSim(topK, 4)
	ingested := 0

	ingest := func(evs []Event) {
		t.Helper()
		raw, _ := json.Marshal(ingestRequest{Events: evs})
		resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(string(raw)))
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		var out IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("ingest decode: %v", err)
		}
		resp.Body.Close()
		if out.Rejected != 0 || out.Accepted != len(evs) {
			t.Fatalf("ingest accepted=%d rejected=%d of %d", out.Accepted, out.Rejected, len(evs))
		}
		for _, ev := range evs {
			sim.observe(ev.U, ev.V, ingested)
			ingested++
		}
	}
	flush := func() {
		t.Helper()
		resp, err := http.Post(ts.URL+"/flush", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatalf("flush: %v", err)
		}
		resp.Body.Close()
	}
	predictReq := func(alg string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/predict?alg=%s&k=%d", ts.URL, alg, topK))
		if err != nil {
			t.Fatalf("predict %s: %v", alg, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("predict %s: status %d", alg, resp.StatusCode)
		}
		var res Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("predict %s decode: %v", alg, err)
		}
		resp.Body.Close()
		if res.Degraded {
			t.Fatalf("predict %s unexpectedly degraded", alg)
		}
		sim.record(res.ServedBy, res.SnapshotSeq, res.SnapshotEdges, ingested, res.Pairs)
	}

	half := len(events) / 2
	threeQ := len(events) * 3 / 4
	algs := []string{"CN", "AA", "Katz"}

	ingest(events[:half])
	flush()
	for _, alg := range algs {
		predictReq(alg)
	}
	ingest(events[half:threeQ])
	flush()
	for _, alg := range algs {
		predictReq(alg)
	}
	ingest(events[threeQ:])

	return eval.All(), sim.stats
}

// TestLiveEvalEndToEnd is the acceptance test for the prequential loop: a
// known trace driven through HTTP produces (a) exactly the hit accounting
// an independent client-side simulation predicts, and (b) bit-identical
// statistics at engine worker counts 1 and 4 (the engine's worker-
// invariant top-k makes the whole prequential series deterministic). It
// runs in CI's race matrix.
func TestLiveEvalEndToEnd(t *testing.T) {
	obs.Reset()
	obs.Enable(true)
	defer func() {
		obs.Enable(false)
		obs.Reset()
	}()

	got1, sim := liveevalRun(t, 1)
	totalHits := int64(0)
	for alg, want := range sim {
		st, ok := got1[alg]
		if !ok {
			t.Fatalf("engine has no stats for %s", alg)
		}
		if st.Recorded != want.recorded || st.PredictedPairs != want.predicted {
			t.Errorf("%s: recorded=%d/%d predicted=%d/%d (engine/sim)",
				alg, st.Recorded, want.recorded, st.PredictedPairs, want.predicted)
		}
		if st.ScoredEdges != want.scored || st.Hits != want.hits {
			t.Errorf("%s: scored=%d/%d hits=%d/%d (engine/sim)",
				alg, st.ScoredEdges, want.scored, st.Hits, want.hits)
		}
		if want.scored > 0 {
			if wantMRR := want.rrSum / float64(want.scored); st.MRR != wantMRR {
				t.Errorf("%s: MRR=%v, sim expects %v", alg, st.MRR, wantMRR)
			}
		}
		if c := obs.GetCounter(`liveeval/hits{alg="` + alg + `"}`).Value(); c != want.hits {
			t.Errorf("%s: obs hits counter=%d, want %d", alg, c, want.hits)
		}
		totalHits += st.Hits
	}
	if totalHits == 0 {
		t.Error("no prequential hits at all; fixture/epoch split no longer exercises the loop")
	}

	obs.Reset()
	got4, _ := liveevalRun(t, 4)
	if !reflect.DeepEqual(got1, got4) {
		t.Fatalf("prequential stats differ between engine workers 1 and 4:\n w1: %+v\n w4: %+v", got1, got4)
	}
}

// TestMetricsEndpointForms pins the /metrics surface: the JSON dump with
// its content type, and the Prometheus exposition — lint-clean, correct
// content type, and carrying the per-algorithm live-accuracy gauges,
// per-endpoint latency quantiles, and snapshot-health gauges the
// dashboards key on.
func TestMetricsEndpointForms(t *testing.T) {
	obs.Reset()
	obs.Enable(true)
	defer func() {
		obs.Enable(false)
		obs.Reset()
	}()

	eval := liveeval.New(liveeval.Config{TopK: 25, Ring: 2, Window: 64, HalfLife: 16})
	s := newTestServer(t, Config{SnapshotEvery: 1 << 20, Workers: 2, Eval: eval})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	events := traceEvents(testTrace(t))
	half := len(events) / 2
	post := func(path string, body any) {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(string(raw)))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
	}
	post("/ingest", ingestRequest{Events: events[:half]})
	post("/flush", struct{}{})
	if resp, err := http.Get(ts.URL + "/predict?alg=CN&k=25"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	post("/ingest", ingestRequest{Events: events[half:]})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("JSON /metrics Content-Type = %q", ct)
	}
	var dump obs.Dump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("JSON /metrics decode: %v", err)
	}
	resp.Body.Close()
	if _, ok := dump.Gauges["serve/snapshot_seq"]; !ok {
		t.Error("JSON dump missing serve/snapshot_seq gauge")
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("prom /metrics Content-Type = %q", ct)
	}
	body := readAll(t, resp)
	if err := obs.LintPrometheus([]byte(body)); err != nil {
		t.Fatalf("prom exposition does not lint: %v", err)
	}
	for _, want := range []string{
		`linkpred_liveeval_hit_rate{alg="CN"}`,
		`linkpred_liveeval_mrr{alg="CN"}`,
		`linkpred_liveeval_edges_scored_total{alg="CN"}`,
		`linkpred_serve_http_latency_ns_p95{endpoint="predict"}`,
		`linkpred_serve_http_latency_ns_bucket{endpoint="ingest",le="+Inf"}`,
		`linkpred_serve_snapshot_age_seconds`,
		`linkpred_serve_publish_lag_edges`,
		`linkpred_predict_predict_ns_count{alg="CN"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom exposition missing %s", want)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
