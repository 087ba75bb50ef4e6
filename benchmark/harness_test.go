package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"linkpred/internal/serve"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, err := tailPercentile(xs, 0.90)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with ten samples beyond", v, err)
	}
	if _, err := tailPercentile(xs[:99], 0.90); err == nil {
		t.Fatal("p90 of 99 samples has nine beyond it and must be refused")
	}
	if _, err := tailPercentile(nil, 0.90); err == nil {
		t.Fatal("p90 of nothing must be refused")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles %v %v median %v", q1, q3, median(xs))
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func quickSchedule(t *testing.T, name string, seed int64) (workload, *schedule) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := generateTrace(w, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	return w, buildSchedule(w, seed, 2, tr)
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		render := func(seed int64) []byte {
			_, s := quickSchedule(t, w.Name, seed)
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		a, again, other := render(7), render(7), render(8)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: the same seed gave two schedules", w.Name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.Name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	w, s := quickSchedule(t, "read_static", 1)
	// Every seed sends the same multiset of tuples per cycle of twelve.
	latentN, n := 0, 0
	for _, o := range s.Open[0][:12] {
		n++
		if latent[o.Alg] {
			latentN++
		}
	}
	if latentN != 2 {
		t.Fatalf("first cycle of %d predicts holds %d latent requests, want 2 (a sixth)", n, latentN)
	}
	for li, lane := range s.Open {
		for i := 1; i < len(lane); i++ {
			if lane[i].Due < lane[i-1].Due {
				t.Fatalf("lane %d is not in due order at %d", li, i)
			}
		}
	}
	if len(s.Events) != 0 || w.WarmFrac != 1 {
		t.Fatalf("read_static must boot on the whole trace and ingest nothing; %d events left", len(s.Events))
	}
	// Ingest ops consume the tail in order without gaps or overlap.
	_, s = quickSchedule(t, "live_durable", 1)
	next := 0
	for _, ops := range [][]op{s.Warmup, s.Open[1]} {
		for _, o := range ops {
			if o.Class != opIngest {
				continue
			}
			if o.Lo != next || o.Hi <= o.Lo {
				t.Fatalf("ingest op [%d,%d) does not continue at %d", o.Lo, o.Hi, next)
			}
			next = o.Hi
		}
	}
	if next == 0 {
		t.Fatal("live_durable scheduled no ingest")
	}
}

func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 40, End: 70},  // overlaps a
		{ID: 4, Parent: 2, Req: 1, Name: "a1", Start: 20, End: 30}, // nested in a
		{ID: 5, Parent: 1, Req: 1, Name: "c", Start: 90, End: 130}, // runs past the root
		{ID: 6, Parent: 1, Req: 1, Name: "d", Start: 45, End: 60},  // inside a ∪ b
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100 - (70 - 10) - (100 - 90), // union of a, b, d is [10,70]; c clipped to [90,100]
		2: 40 - 10,
		3: 30,
		4: 10,
		5: 40,
		6: 15,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

// inprocRun boots a quick workload in process, sends its warm-up and open
// loop, and returns the samples and what is needed to verify them.
func inprocRun(t *testing.T, name string) (*schedule, []sample) {
	t.Helper()
	w, s := quickSchedule(t, name, 3)
	sys, err := bootSystem(w, s.Warm, newRecorder(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.close)
	tr := newTraffic(w, s, &inprocTarget{sys: sys}, &inprocTarget{sys: sys}, time.Now())
	tr.warmup(context.Background())
	for li := range tr.lanes {
		tr.lanes[li].backToBack(context.Background(), s.Open[li], phaseOpen)
	}
	return s, tr.samples()
}

func verifyCopy(s *schedule, samples []sample) *verdict {
	return newOracle(s.Warm).verify(s, append([]sample(nil), samples...), 1)
}

func TestOracleAcceptsAnHonestRunAndRejectsTampering(t *testing.T) {
	s, samples := inprocRun(t, "live_durable")
	if v := verifyCopy(s, samples); v.Failed != 0 || v.Checked == 0 {
		t.Fatalf("honest run: %d failed, %d checked: %v", v.Failed, v.Checked, v.Problems)
	}

	// The first predict whose top-k holds two neighbours with equal scores.
	victim, tieAt := -1, -1
	var hdr readHeader
	for i := range samples {
		if samples[i].Op.Class != opPredict {
			continue
		}
		var h readHeader
		if err := json.Unmarshal(samples[i].Body, &h); err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(h.Pairs); j++ {
			if h.Pairs[j].Score == h.Pairs[j-1].Score {
				victim, tieAt, hdr = i, j, h
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Fatal("no predict response with a tie to reorder")
	}
	mutate := func(body []byte) *verdict {
		mutated := append([]sample(nil), samples...)
		mutated[victim].Body = body
		return newOracle(s.Warm).verify(s, mutated, 1)
	}

	// One flipped digit of one score.
	body := samples[victim].Body
	at := bytes.Index(body, []byte(`"score":`)) + len(`"score":`)
	flipped := append([]byte(nil), body...)
	flipped[at] = '0' + (flipped[at]-'0'+1)%10
	if v := mutate(flipped); v.Failed == 0 {
		t.Error("a tampered score passed the oracle")
	}

	// Two tied pairs in the wrong order: same scores, same set, wrong rank.
	swapped := hdr.Result
	swapped.Pairs = append([]serve.PairScore(nil), hdr.Pairs...)
	swapped.Pairs[tieAt], swapped.Pairs[tieAt-1] = swapped.Pairs[tieAt-1], swapped.Pairs[tieAt]
	if v := mutate(encodeResult(&swapped)); v.Failed == 0 {
		t.Error("a reordered tie passed the oracle")
	}
}

func TestOracleRejectsAStaleEpochAfterAnAck(t *testing.T) {
	s, samples := inprocRun(t, "live_durable")
	// A read answered from the boot snapshot, replayed as if it had been
	// sent after the last ack: by then at least one publish boundary had
	// been acked, so a cache serving it would be serving a stale epoch.
	var lastAck time.Duration
	acked := len(s.Warm.Edges)
	for _, sm := range samples {
		if sm.Op.Class == opIngest && sm.Status == http.StatusOK {
			lastAck = max(lastAck, sm.Done)
			acked += sm.Op.Hi - sm.Op.Lo
		}
	}
	if acked-len(s.Warm.Edges) < snapshotEvery {
		t.Fatalf("the run acked only %d edges, no publish boundary", acked-len(s.Warm.Edges))
	}
	stale := -1
	for i, sm := range samples {
		var h readHeader
		if sm.Op.Class == opScore && json.Unmarshal(sm.Body, &h) == nil && h.SnapshotEdges == len(s.Warm.Edges) {
			stale = i
			break
		}
	}
	if stale < 0 {
		t.Fatal("no read from the boot snapshot")
	}
	mutated := append([]sample(nil), samples...)
	mutated[stale].Sent = lastAck + time.Millisecond
	mutated[stale].Done = mutated[stale].Sent + time.Millisecond
	v := newOracle(s.Warm).verify(s, mutated, 1)
	if v.Failed != 1 || !strings.Contains(strings.Join(v.Problems, "\n"), "stale epoch") {
		t.Fatalf("stale epoch: %d failed: %v", v.Failed, v.Problems)
	}
}

// stubTarget answers at once.
type stubTarget struct{ calls int }

func (s *stubTarget) do(context.Context, *op, []byte) (int, []byte, error) {
	s.calls++
	return http.StatusOK, []byte(`{"accepted":0,"rejected":0,"trace_edges":0}`), nil
}

func TestLateRequestsAreDroppedAndCountAsFailed(t *testing.T) {
	tg := &stubTarget{}
	l := &lane{tg: tg, sched: &schedule{}, epoch: time.Now()}
	ops := []op{{Class: opPredict, Alg: "CN", K: 5}, {Class: opPredict, Alg: "CN", K: 5}}
	l.send(context.Background(), &ops[0], phaseOpen, time.Now().Add(-maxLate-time.Second), nil)
	l.send(context.Background(), &ops[1], phaseOpen, time.Now().Add(-time.Millisecond), nil)
	if tg.calls != 1 || !l.out[0].Dropped || l.out[1].Dropped {
		t.Fatalf("calls %d, dropped %v %v: only the request more than %v late is dropped", tg.calls, l.out[0].Dropped, l.out[1].Dropped, maxLate)
	}
	if lat := l.out[1].latencyMS(); lat < 1 {
		t.Fatalf("latency %v ms does not count from the due time", lat)
	}
	v := &verdict{}
	if l.out[0].ok(v) || v.Failed != 1 {
		t.Fatal("a dropped request must count as failed")
	}
}

func TestBenchmarkJSONNamesWhatTheHarnessReports(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		benchmarkJSON
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, b.Workloads[i].Name, w.Name)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the harness reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i].Name != m.Name || b.PerLayer[i].Unit != m.Unit {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json and %+v in the harness", i, b.PerLayer[i], m)
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmokeRealDaemons builds linkpredd and linkpredr, spawns them through
// all four workloads in quick mode, and requires a clean run: every
// response verified, the crash check passed, nothing refused or dropped.
func TestSmokeRealDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.close(t.Failed()) }()
	if _, err := e.buildDaemons(); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res, err := e.runSocket(context.Background(), w, options{seed: 1, seconds: 2, quick: true, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", w.Name, res.Failed, res.Attempted, res.Problems)
		}
		for _, name := range []string{"predict_p50_ms", "capacity_rps", "cpu_ms_per_op", "rss_peak_mb", "setup_s"} {
			if m := res.Metrics[name]; !(m.Value > 0) {
				t.Errorf("%s: %s = %v, every workload must report every end-to-end metric above zero", w.Name, name, m.Value)
			}
		}
	}
}
