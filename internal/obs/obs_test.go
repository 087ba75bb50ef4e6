package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// withObs runs the body with telemetry enabled on a clean slate and
// restores the disabled default afterwards.
func withObs(t *testing.T, body func()) {
	t.Helper()
	Reset()
	Enable(true)
	defer func() {
		Enable(false)
		Reset()
	}()
	body()
}

func TestCounterRegistry(t *testing.T) {
	withObs(t, func() {
		GetCounter("a/b").Add(3)
		GetCounter("a/b").Inc()
		if got := GetCounter("a/b").Value(); got != 4 {
			t.Fatalf("counter = %d, want 4", got)
		}
		if _, ok := Snapshot().Counters["missing"]; ok {
			t.Fatal("an unrecorded counter is listed")
		}
		var nilC *Counter
		nilC.Add(1) // must not panic
		if nilC.Value() != 0 {
			t.Fatal("nil counter has a value")
		}
	})
}

// TestGateSemantics pins the one on/off gate: handles keep working across
// toggles and Reset, and only a record made while telemetry is on lists a
// metric in the Snapshot.
func TestGateSemantics(t *testing.T) {
	withObs(t, func() {
		c, h, g, r := GetCounter("gate/c"), GetHistogram("gate/h"), GetGauge("gate/g"), GetRolling("gate/r", time.Minute)
		if d := Snapshot(); len(d.Counters)+len(d.Histograms)+len(d.Gauges)+len(d.Rolling) != 0 {
			t.Fatalf("Get* alone listed metrics: %+v", d)
		}
		record := func() {
			c.Inc()
			h.Observe(5)
			g.Set(2)
			r.Add(5)
		}
		Enable(false)
		record()
		if d := Snapshot(); len(d.Counters)+len(d.Histograms)+len(d.Gauges)+len(d.Rolling) != 0 || c.Value() != 0 {
			t.Fatalf("records while off were kept: %+v", d)
		}
		Enable(true)
		record()
		Enable(false)
		record()
		Enable(true)
		if c.Value() != 1 || h.Count() != 1 || r.Snapshot().Count != 1 {
			t.Fatalf("after on, off: counter %d, histogram %d, rolling %d; want 1 each", c.Value(), h.Count(), r.Snapshot().Count)
		}
		record()
		if c.Value() != 2 {
			t.Fatalf("counter = %d after resuming, want 2", c.Value())
		}
		Reset()
		if d := Snapshot(); len(d.Counters)+len(d.Histograms)+len(d.Gauges)+len(d.Rolling) != 0 || c.Value() != 0 {
			t.Fatalf("Reset left a handle listed or nonzero: %+v", d)
		}
		c.Add(3)
		h.Observe(7)
		d := Snapshot()
		if d.Counters["gate/c"] != 3 || d.Histograms["gate/h"].Count != 1 {
			t.Fatalf("handles held across Reset did not list again: %+v", d)
		}
		if _, ok := d.Gauges["gate/g"]; ok {
			t.Fatal("a gauge not recorded since Reset is listed")
		}
	})
}

func TestHistogramConcurrent(t *testing.T) {
	withObs(t, func() {
		h := GetHistogram("lat")
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 1; i <= 1000; i++ {
					h.Observe(int64(i * (w + 1)))
				}
			}(w)
		}
		wg.Wait()
		s := h.Snapshot()
		if s.Count != 8000 {
			t.Fatalf("count = %d, want 8000", s.Count)
		}
		if s.Min != 1 || s.Max != 8000 {
			t.Fatalf("min/max = %d/%d, want 1/8000", s.Min, s.Max)
		}
		if s.P50 < s.Min || s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.Max {
			t.Fatalf("quantiles out of order: %+v", s)
		}
		var total int64
		for _, b := range s.Buckets {
			total += b.Count
		}
		if total != s.Count {
			t.Fatalf("bucket total %d != count %d", total, s.Count)
		}
		var nilH *Histogram
		nilH.Observe(1) // must not panic
	})
}

func TestHistogramEdgeValues(t *testing.T) {
	withObs(t, func() {
		h := GetHistogram("edge")
		h.Observe(-5) // clamps to 0
		h.Observe(0)
		h.Observe(1)
		h.Observe(1 << 40)
		s := h.Snapshot()
		if s.Count != 4 || s.Min != 0 || s.Max != 1<<40 {
			t.Fatalf("snapshot = %+v", s)
		}
	})
}

func TestResetClearsEverything(t *testing.T) {
	withObs(t, func() {
		GetCounter("x").Inc()
		GetHistogram("y").Observe(1)
		AddWorkerChunks(2, 5)
		_, sp := StartSpan(context.Background(), "root")
		sp.End()
		Reset()
		d := Snapshot()
		if len(d.Counters) != 0 || len(d.Histograms) != 0 || len(d.Spans) != 0 || d.WorkerChunkClaims != nil {
			t.Fatalf("reset left state behind: %+v", d)
		}
	})
}

func TestDumpJSONRoundTrip(t *testing.T) {
	withObs(t, func() {
		GetCounter("predict/CN/pairs_scored").Add(42)
		GetHistogram("predict/CN/predict_ns").Observe(1234)
		AddWorkerChunks(0, 7)
		AddWorkerChunks(3, 2)
		var buf bytes.Buffer
		if err := WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var d Dump
		if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
			t.Fatal(err)
		}
		if d.Counters["predict/CN/pairs_scored"] != 42 {
			t.Fatalf("counter lost in round trip: %+v", d.Counters)
		}
		if d.Histograms["predict/CN/predict_ns"].Count != 1 {
			t.Fatalf("histogram lost in round trip: %+v", d.Histograms)
		}
		want := []int64{7, 0, 0, 2}
		if len(d.WorkerChunkClaims) != len(want) {
			t.Fatalf("worker claims = %v, want %v", d.WorkerChunkClaims, want)
		}
		for i, w := range want {
			if d.WorkerChunkClaims[i] != w {
				t.Fatalf("worker claims = %v, want %v", d.WorkerChunkClaims, want)
			}
		}
	})
}

func TestHandlerServesDump(t *testing.T) {
	withObs(t, func() {
		GetCounter("served").Inc()
		rec := httptest.NewRecorder()
		Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("status = %d", rec.Code)
		}
		if !strings.Contains(rec.Body.String(), `"served": 1`) {
			t.Fatalf("body missing counter: %s", rec.Body.String())
		}
	})
}

func TestLogProgress(t *testing.T) {
	withObs(t, func() {
		GetHistogram("predict/CN/predict_ns").Observe(10)
		GetCounter("predict/CN/pairs_scored").Add(99)
		var mu sync.Mutex
		var buf bytes.Buffer
		w := writerFunc(func(p []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			return buf.Write(p)
		})
		stop := LogProgress(5*time.Millisecond, w)
		deadline := time.Now().Add(2 * time.Second)
		for {
			mu.Lock()
			out := buf.String()
			mu.Unlock()
			if strings.Contains(out, "pairs_scored=99") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no progress line after 2s: %q", out)
			}
			time.Sleep(5 * time.Millisecond)
		}
		stop()
		stop() // idempotent
	})
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestBootDisabledIsNoop(t *testing.T) {
	Reset()
	Enable(false)
	stop, err := Boot(false, "", 0, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if Enabled() {
		t.Fatal("Boot enabled telemetry without any surface requested")
	}
}
