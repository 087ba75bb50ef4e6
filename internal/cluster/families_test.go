package cluster

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"linkpred/internal/liveeval"
	"linkpred/internal/obs"
	"linkpred/internal/serve"
	"linkpred/internal/snapcache"
	"linkpred/internal/wal"
)

var updateFamilies = flag.Bool("update", false, "rewrite testdata/metric_families.golden")

// TestMetricFamiliesGolden pins which metrics the serving stack publishes:
// the sorted kind-and-name list of obs.Snapshot() after one deterministic
// script, driven over in-process transports through one node (liveeval on,
// WAL on a MemStorage, degradation forced by a 1ns p95 over a one-sample
// window) and through a two-shard router. The script ingests, flushes,
// predicts CN, AA and Katz, repeats CN at a smaller k (an epoch-memo hit on
// every node), scores, ingests again so liveeval scores edges
// against the recorded predictions, and scrapes /metrics on both tiers.
// Values are not pinned, only the set of names: a refactor of how
// telemetry is recorded must leave it unchanged. Regenerate with
// `go test ./internal/cluster -run MetricFamiliesGolden -update`.
func TestMetricFamiliesGolden(t *testing.T) {
	snapcache.Reset() // evictions of an earlier test's snapshots would count
	obs.Reset()
	obs.Enable(true)
	t.Cleanup(func() {
		obs.Enable(false)
		obs.Reset()
	})
	const seed = 7
	newNode := func(cfg serve.Config) *serve.Server {
		cfg.SnapshotEvery = 1 << 20
		cfg.Workers = 1
		cfg.Opt.Seed = seed
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	node := newNode(serve.Config{
		Eval:    liveeval.New(liveeval.Config{TopK: 64, Window: 64}),
		WAL:     wal.NewMemStorage(),
		Degrade: serve.DegradeConfig{P95: time.Nanosecond, Window: 1},
	})
	plain := serve.Config{Degrade: serve.DegradeConfig{Disabled: true}}
	shard0, shard1 := newNode(plain), newNode(plain)
	hosts := handlerTransport{"node": node.Handler(), "s0": shard0.Handler(), "s1": shard1.Handler()}
	router := New(Config{
		Shards: []string{"http://s0", "http://s1"}, Seed: seed, HedgeAfter: -1,
		Client: &http.Client{Transport: hosts},
	})
	hosts["router"] = router.Handler()
	client := &http.Client{Transport: hosts}

	events := randomEvents(11, 900)
	body := func(evs []serve.Event) string {
		b, err := json.Marshal(map[string]any{"events": evs})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, host := range []string{"node", "router"} {
		do := func(method, path, payload string) {
			t.Helper()
			req, err := http.NewRequest(method, "http://"+host+path, strings.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s%s: %d %s", method, host, path, resp.StatusCode, out)
			}
		}
		do("POST", "/ingest", body(events[:600]))
		do("POST", "/flush", "")
		for _, alg := range []string{"CN", "AA", "Katz"} {
			do("GET", "/predict?alg="+alg+"&k=64", "")
		}
		do("GET", "/predict?alg=CN&k=20", "")
		do("POST", "/score", `{"alg":"AA","pairs":[[1000,1001],[1002,1003],[1004,1005]]}`)
		do("POST", "/ingest", body(events[600:]))
		do("POST", "/flush", "")
		do("GET", "/metrics", "")
		do("GET", "/metrics?format=prom", "")
	}
	if !node.Degraded() {
		t.Fatal("the node's forced degradation did not trip")
	}

	d := obs.Snapshot()
	var rows []string
	add := func(kind string, names []string) {
		for _, n := range names {
			rows = append(rows, kind+" "+n)
		}
	}
	add("counter", keys(d.Counters))
	add("gauge", keys(d.Gauges))
	add("histogram", keys(d.Histograms))
	add("rolling", keys(d.Rolling))
	sort.Strings(rows)
	got := strings.Join(rows, "\n") + "\n"

	path := filepath.Join("testdata", "metric_families.golden")
	if *updateFamilies {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric families drifted from %s; run with -update if intended.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
