package predict

import (
	"fmt"
	"reflect"
	"testing"

	"linkpred/internal/obs"
)

// withTelemetry runs body with obs collection enabled on a clean slate and
// restores the disabled default afterwards. The predict tests never run in
// parallel, so toggling the package-global state is safe.
func withTelemetry(t *testing.T, body func()) {
	t.Helper()
	obs.Reset()
	obs.Enable(true)
	defer func() {
		obs.Enable(false)
		obs.Reset()
	}()
	body()
}

// TestEveryAlgorithmEmitsTelemetry drives one instrumented Predict and
// ScorePairs through every registered algorithm and asserts each emitted
// its latency histograms and pairs-scored counter. This is the registry
// guard: a new algorithm whose entry points skip beginRun fails here.
func TestEveryAlgorithmEmitsTelemetry(t *testing.T) {
	g := randomGraph(7, 300, 1400)
	pairs := []Pair{{U: 1, V: 2}, {U: 3, V: 4}, {U: 5, V: 6}}
	withTelemetry(t, func() {
		for _, alg := range registry {
			if got := alg.Predict(g, 25, DefaultOptions()); len(got) == 0 {
				t.Fatalf("%s: Predict returned nothing", alg.Name())
			}
			alg.ScorePairs(g, pairs, DefaultOptions())
		}
		d := obs.Snapshot()
		for _, alg := range registry {
			name := alg.Name()
			for _, op := range []string{"predict_ns", "score_pairs_ns"} {
				key := fmt.Sprintf("predict/%s/%s", name, op)
				h, ok := d.Histograms[key]
				if !ok {
					t.Errorf("%s: histogram %q missing", name, key)
					continue
				}
				if h.Count < 1 {
					t.Errorf("%s: histogram %q has no observations", name, key)
				}
			}
			key := "predict/" + name + "/pairs_scored"
			c, ok := d.Counters[key]
			if !ok {
				t.Errorf("%s: counter %q missing", name, key)
				continue
			}
			// Predict counts candidate pairs through the top-k selectors and
			// ScorePairs adds len(pairs); both ran, so strictly positive.
			if c < int64(len(pairs)) {
				t.Errorf("%s: pairs_scored = %d, want >= %d", name, c, len(pairs))
			}
		}
	})
}

// TestTelemetryPreservesDeterminism asserts the bit-identical contract is
// unaffected by collection: Predict and ScorePairs output with telemetry
// enabled (at 1 and 4 workers) must equal the disabled baseline exactly.
func TestTelemetryPreservesDeterminism(t *testing.T) {
	g := randomGraph(3, 220, 900)
	pairs := []Pair{{U: 0, V: 9}, {U: 10, V: 41}, {U: 7, V: 100}}
	for _, alg := range []Algorithm{CN, RA, PA, LP, KatzLR, PPR, Rescal} {
		opt := DefaultOptions()
		opt.Workers = 1
		basePred := alg.Predict(g, 40, opt)
		baseScores := alg.ScorePairs(g, pairs, opt)
		withTelemetry(t, func() {
			for _, workers := range []int{1, 4} {
				o := DefaultOptions()
				o.Workers = workers
				if got := alg.Predict(g, 40, o); !reflect.DeepEqual(got, basePred) {
					t.Errorf("%s: Predict with telemetry at %d workers diverged from baseline", alg.Name(), workers)
				}
				if got := alg.ScorePairs(g, pairs, o); !reflect.DeepEqual(got, baseScores) {
					t.Errorf("%s: ScorePairs with telemetry at %d workers diverged from baseline", alg.Name(), workers)
				}
			}
		})
	}
}

// TestPredictTelemetryAllocs pins the engine's telemetry cost in
// allocations: a sharded Predict with telemetry on allocates what it does
// with telemetry off, plus its one recorder.
func TestPredictTelemetryAllocs(t *testing.T) {
	g := randomGraph(11, 1200, 6000)
	opt := DefaultOptions()
	opt.Workers = 4
	allocs := func(on bool) float64 {
		obs.Enable(on)
		defer obs.Enable(false)
		return testing.AllocsPerRun(20, func() { CN.Predict(g, 50, opt) })
	}
	defer obs.Reset()
	off, on := allocs(false), allocs(true)
	if on > off+1 {
		t.Fatalf("Predict allocates %v times with telemetry on, %v with it off; want at most one more", on, off)
	}
}

// TestEngineRecordsChunkClaims asserts the parallel engine's dynamic chunk
// accounting reaches the obs layer: a multi-worker Predict over a graph
// large enough to shard must record chunk claims and a fanout.
func TestEngineRecordsChunkClaims(t *testing.T) {
	g := randomGraph(11, 1200, 6000)
	withTelemetry(t, func() {
		opt := DefaultOptions()
		opt.Workers = 4
		CN.Predict(g, 50, opt)
		d := obs.Snapshot()
		c, ok := d.Counters["engine/chunks_claimed"]
		if !ok || c == 0 {
			t.Fatalf("engine/chunks_claimed not recorded (ok=%v)", ok)
		}
		if f, ok := d.Counters["engine/shard_fanouts"]; !ok || f == 0 {
			t.Fatalf("engine/shard_fanouts not recorded (ok=%v)", ok)
		}
		var claims int64
		for _, v := range d.WorkerChunkClaims {
			claims += v
		}
		if claims != c {
			t.Fatalf("per-worker chunk claims sum %d != chunks_claimed %d", claims, c)
		}
	})
}
