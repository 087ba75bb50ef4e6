package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"linkpred/internal/predict"
)

// goldenDoc is the checked-in end-to-end payload: the full top-k responses
// of three algorithm families after ingesting the seeded fixture over HTTP.
type goldenDoc struct {
	SnapshotSeq   int64              `json:"snapshot_seq"`
	SnapshotEdges int                `json:"snapshot_edges"`
	Nodes         int                `json:"nodes"`
	Results       map[string]*Result `json:"results"`
}

const goldenPath = "testdata/golden_predict.json"

// goldenRun drives the full HTTP path — chunked /ingest, /flush, /predict
// for a local, a bayesian, and a latent algorithm — and returns the
// serialized payload.
func goldenRun(t *testing.T, engineWorkers int) []byte {
	t.Helper()
	tr := testTrace(t)
	events := traceEvents(tr)
	opt := predict.DefaultOptions()
	opt.Workers = engineWorkers
	s := newTestServer(t, Config{
		SnapshotEvery: 1 << 20, // only /flush publishes, keeping seq deterministic
		Workers:       2,
		Opt:           opt,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, body any) map[string]any {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
		return out
	}

	// Ingest in three chunks, exercising incremental trace growth.
	third := len(events) / 3
	for _, chunk := range [][]Event{events[:third], events[third : 2*third], events[2*third:]} {
		out := post("/ingest", ingestRequest{Events: chunk})
		if out["rejected"].(float64) != 0 {
			t.Fatalf("ingest rejected %v events", out["rejected"])
		}
	}
	post("/flush", struct{}{})

	doc := goldenDoc{Results: make(map[string]*Result)}
	for _, alg := range []string{"CN", "AA", "Katz"} {
		resp, err := http.Get(fmt.Sprintf("%s/predict?alg=%s&k=25", ts.URL, alg))
		if err != nil {
			t.Fatalf("GET /predict %s: %v", alg, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("GET /predict %s: status %d", alg, resp.StatusCode)
		}
		var res Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			resp.Body.Close()
			t.Fatalf("GET /predict %s: decode: %v", alg, err)
		}
		resp.Body.Close()
		if len(res.Pairs) != 25 {
			t.Fatalf("%s returned %d pairs, want 25", alg, len(res.Pairs))
		}
		doc.Results[alg] = &res
		doc.SnapshotSeq = res.SnapshotSeq
		doc.SnapshotEdges = res.SnapshotEdges
	}
	doc.Nodes = s.Snapshot().Graph.NumNodes()

	raw, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// TestGoldenEndToEnd pins the end-to-end serving output bit for bit: the
// seeded fixture ingested over HTTP and queried for CN, AA, and Katz top-25
// must reproduce the checked-in golden JSON exactly — at engine worker
// counts 1 and 4, which must agree with each other byte for byte (the
// engine's determinism contract, now observed through the server).
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/serve -run Golden.
func TestGoldenEndToEnd(t *testing.T) {
	got1 := goldenRun(t, 1)
	got4 := goldenRun(t, 4)
	if !bytes.Equal(got1, got4) {
		t.Fatal("engine workers 1 and 4 produced different payloads; the served output is worker-count dependent")
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got1, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got1))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got1, want) {
		t.Fatalf("served payload diverged from %s (regenerate with UPDATE_GOLDEN=1 if the change is intended)\ngot %d bytes, want %d", goldenPath, len(got1), len(want))
	}
}

// TestNewHTTPServerTimeouts pins the daemons' listener policy: header and
// idle timeouts set, no write timeout (a slow latent /predict is legitimate
// and bounded per request by timeout_ms).
func TestNewHTTPServerTimeouts(t *testing.T) {
	hs := NewHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Errorf("WriteTimeout %v, ReadTimeout %v: want none", hs.WriteTimeout, hs.ReadTimeout)
	}
}
