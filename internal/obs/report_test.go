package obs

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWriteReportAtomic: while DumpEvery rewrites the file as fast as its
// ticker allows, a concurrent reader either finds no file yet or a complete,
// parseable report — never a torn or empty one. The final stop() dump is
// there when stop returns.
func TestWriteReportAtomic(t *testing.T) {
	Enable(true)
	defer Enable(false)
	Reset()
	for i := 0; i < 200; i++ {
		GetCounter("report/padding_" + string(rune('a'+i%26)) + string(rune('a'+i/26))).Add(int64(i))
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	stop := DumpEvery(path, 200*time.Microsecond)

	reads := 0
	for deadline := time.Now().Add(2 * time.Second); reads < 200 && time.Now().Before(deadline); {
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue // before the first tick
		}
		if err != nil {
			t.Fatal(err)
		}
		var r Report
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("read %d: torn report (%d bytes): %v", reads, len(data), err)
		}
		if r.Metrics == nil || len(r.Metrics.Counters) < 200 || r.GoVersion == "" {
			t.Fatalf("read %d: incomplete report: %d bytes, metrics %v", reads, len(data), r.Metrics != nil)
		}
		reads++
	}
	if reads == 0 {
		t.Fatal("DumpEvery never wrote the report")
	}

	GetCounter("report/after_loop").Inc()
	stop()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var final Report
	if err := json.Unmarshal(data, &final); err != nil {
		t.Fatal(err)
	}
	if final.Metrics.Counters["report/after_loop"] != 1 {
		t.Error("stop() did not write a final report")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
}

// TestReportKeys pins the envelope's JSON keys (cmd/promlint -json and the
// notebooks read them) and that an embedding command keeps them top-level.
func TestReportKeys(t *testing.T) {
	Enable(false)
	type wrapped struct {
		Report
		Experiments []string `json:"experiments"`
	}
	data, err := json.Marshal(wrapped{NewReport(), []string{"fig5"}})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"generated_at", "go_version", "gomaxprocs", "experiments"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("key %q missing from %s", k, data)
		}
	}
	if _, ok := keys["metrics"]; ok {
		t.Errorf("metrics present with collection off: %s", data)
	}
}
