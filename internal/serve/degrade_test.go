package serve

import (
	"context"
	"testing"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
)

// slowLatent wraps a real latent algorithm with a fixed artificial delay,
// simulating a latent sweep that blows the latency budget on a cold
// snapshot.
type slowLatent struct {
	inner predict.Algorithm
	delay time.Duration
	calls int // sweeps actually executed on the latent path
}

func (s *slowLatent) Name() string { return s.inner.Name() }
func (s *slowLatent) Predict(g *graph.Graph, k int, opt predict.Options) []predict.Pair {
	s.calls++
	time.Sleep(s.delay)
	return s.inner.Predict(g, k, opt)
}
func (s *slowLatent) ScorePairs(g *graph.Graph, pairs []predict.Pair, opt predict.Options) []float64 {
	time.Sleep(s.delay)
	return s.inner.ScorePairs(g, pairs, opt)
}

// TestDegradationProperty pins the graceful-degradation contract end to
// end with an injected slow latent scorer:
//
//  1. the first (slow) Katz sweep trips the controller;
//  2. while degraded, Katz requests are served by the AA proxy, flagged
//     Degraded with ServedBy "AA", and are bit-identical to running AA
//     offline on the same snapshot — degradation never makes output
//     nondeterministic;
//  3. fast proxy sweeps recover the controller after RecoverAfter healthy
//     observations, and the next Katz request, on a freshly published
//     snapshot, takes the latent path again;
//  4. serve/degraded_responses matches the flagged responses exactly;
//  5. degraded requests bypass the epoch memo (their proxy sweeps are what
//     recovers the controller), and once recovered a repeat on the same
//     snapshot is a memo hit: served by Katz without calling it again, and
//     not an observation that could trip the controller.
func TestDegradationProperty(t *testing.T) {
	obs.Enable(true)
	obs.Reset()
	t.Cleanup(func() { obs.Enable(false) })

	const (
		k            = 20
		recoverAfter = 3
		p95Limit     = 60 * time.Millisecond
		slowDelay    = 150 * time.Millisecond
	)
	tr := testTrace(t)
	slow := &slowLatent{inner: mustAlg(t, "Katz"), delay: slowDelay}
	s := newTestServer(t, Config{
		SnapshotEvery: 1 << 20,
		Workers:       1, // serialize sweeps so controller transitions are deterministic
		Degrade: DegradeConfig{
			P95:          p95Limit,
			Window:       1, // react to the latest sweep alone
			RecoverAfter: recoverAfter,
		},
		Resolve: func(name string) (predict.Algorithm, error) {
			if name == "Katz" {
				return slow, nil
			}
			return predict.ByName(name)
		},
	})
	if _, _, err := s.Ingest(traceEvents(tr)); err != nil {
		t.Fatal(err)
	}
	snap := s.Flush()
	wantProxy := mustAlg(t, "AA").Predict(snap.Graph, k, s.cfg.Opt)

	ask := func() *Result {
		t.Helper()
		res, err := s.Predict(context.Background(), "Katz", k)
		if err != nil {
			t.Fatalf("predict: %v", err)
		}
		return res
	}

	// 1. The first sweep takes the (slow) latent path and trips the
	// controller on its way out.
	r1 := ask()
	if r1.Degraded || r1.ServedBy != "Katz" {
		t.Fatalf("first response: served_by=%s degraded=%v, want the latent path", r1.ServedBy, r1.Degraded)
	}
	if !s.Degraded() {
		t.Fatal("controller did not trip after a slow sweep")
	}

	// 2. Degraded responses: flagged, proxy-served, deterministic.
	var degradedSeen int
	for i := 0; i < recoverAfter; i++ {
		r := ask()
		if !r.Degraded || r.ServedBy != "AA" {
			t.Fatalf("response %d under degradation: served_by=%s degraded=%v, want AA/true", i, r.ServedBy, r.Degraded)
		}
		degradedSeen++
		if len(r.Pairs) != len(wantProxy) {
			t.Fatalf("degraded response %d: %d pairs, proxy offline %d", i, len(r.Pairs), len(wantProxy))
		}
		for j, w := range wantProxy {
			got := r.Pairs[j]
			if got.U != s.led.Externals()[w.U] || got.V != s.led.Externals()[w.V] || got.Score != w.Score {
				t.Fatalf("degraded response %d rank %d: %+v, proxy offline %+v", i, j, got, w)
			}
		}
	}

	// 3. recoverAfter fast proxy sweeps re-enable the latent path. The ask
	// runs on a newly published snapshot: on r1's snapshot it would be a
	// memo hit and prove nothing about the latent path sweeping again.
	if s.Degraded() {
		t.Fatalf("controller still degraded after %d healthy sweeps", recoverAfter)
	}
	last := tr.Edges[len(tr.Edges)-1]
	if acc, _, err := s.Ingest([]Event{{U: 0, V: int64(tr.NumNodes()), T: last.Time}}); err != nil || acc != 1 {
		t.Fatalf("ingest one edge: accepted=%d err=%v", acc, err)
	}
	if got := s.Flush(); got.Seq != snap.Seq+1 {
		t.Fatalf("flush published seq %d, want %d", got.Seq, snap.Seq+1)
	}
	r5 := ask()
	if r5.Degraded || r5.ServedBy != "Katz" {
		t.Fatalf("post-recovery response: served_by=%s degraded=%v, want the latent path", r5.ServedBy, r5.Degraded)
	}

	// 4. The counter matches the flagged responses exactly.
	if got := obs.GetCounter("serve/degraded_responses").Value(); got != int64(degradedSeen) {
		t.Fatalf("serve/degraded_responses = %d, %d responses were flagged", got, degradedSeen)
	}
	if got := obs.GetCounter("serve/degrade_transitions").Value(); got != 2 {
		t.Fatalf("serve/degrade_transitions = %d, want 2 (tripped by both slow sweeps)", got)
	}
	if slow.calls != 2 {
		t.Fatalf("latent path swept %d times, want 2 (first sweep and post-recovery sweep)", slow.calls)
	}

	// 5. r5 tripped the controller again; proxy sweeps recover it, then
	// the repeat is answered from the memo.
	for i := 0; i < recoverAfter; i++ {
		if r := ask(); !r.Degraded {
			t.Fatalf("degraded ask %d after r5 was not degraded", i)
		}
	}
	r6 := ask()
	if r6.Degraded || r6.ServedBy != "Katz" || r6.SnapshotSeq != r5.SnapshotSeq {
		t.Fatalf("repeat: served_by=%s degraded=%v seq=%d, want Katz on seq %d", r6.ServedBy, r6.Degraded, r6.SnapshotSeq, r5.SnapshotSeq)
	}
	if slow.calls != 2 {
		t.Fatalf("a repeat on the same snapshot swept the latent path: %d calls, want 2", slow.calls)
	}
	if got := obs.GetCounter("serve/degrade_transitions").Value(); got != 2 || s.Degraded() {
		t.Fatalf("after a memo hit: degrade_transitions = %d, degraded = %v; a hit is not an observation", got, s.Degraded())
	}
}

// TestDegradeScorePath checks the pair-score side: a degraded Katz score
// request is served by the AA proxy, flagged, and bit-identical to AA's
// offline ScorePairs.
func TestDegradeScorePath(t *testing.T) {
	obs.Enable(true)
	obs.Reset()
	t.Cleanup(func() { obs.Enable(false) })
	tr := testTrace(t)
	s := newTestServer(t, Config{
		SnapshotEvery: 1 << 20,
		Workers:       1,
		Degrade:       DegradeConfig{P95: 40 * time.Millisecond, Window: 1, RecoverAfter: 100},
		Resolve: func(name string) (predict.Algorithm, error) {
			a, err := predict.ByName(name)
			if err != nil {
				return nil, err
			}
			if name == "Katz" {
				return &slowLatent{inner: a, delay: 100 * time.Millisecond}, nil
			}
			return a, nil
		},
	})
	if _, _, err := s.Ingest(traceEvents(tr)); err != nil {
		t.Fatal(err)
	}
	snap := s.Flush()
	if _, err := s.Predict(context.Background(), "Katz", 5); err != nil { // trip it
		t.Fatal(err)
	}
	if !s.Degraded() {
		t.Fatal("controller did not trip")
	}
	ext := [][2]int64{{0, 7}, {4, 9}, {1, 12}}
	res, err := s.Score(context.Background(), "Katz", ext)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.ServedBy != "AA" {
		t.Fatalf("served_by=%s degraded=%v, want AA/true", res.ServedBy, res.Degraded)
	}
	var flat []predict.Pair
	for _, p := range ext {
		u, _ := s.led.Lookup(p[0])
		v, _ := s.led.Lookup(p[1])
		flat = append(flat, predict.Pair{U: u, V: v})
	}
	want := predict.AA.ScorePairs(snap.Graph, flat, s.cfg.Opt)
	for i := range want {
		if res.Pairs[i].Score != want[i] {
			t.Fatalf("pair %v: degraded score %v, proxy offline %v", ext[i], res.Pairs[i].Score, want[i])
		}
	}
}

// TestDegraderHysteresis unit-tests the controller: one over-limit
// observation trips it, recovery needs RecoverAfter consecutive healthy
// ones, and a relapse resets the healthy run.
func TestDegraderHysteresis(t *testing.T) {
	d := newDegrader(DegradeConfig{P95: 10 * time.Millisecond, Window: 1, RecoverAfter: 3, QueueDepth: 100}, 128)
	if d.degraded() {
		t.Fatal("fresh controller is degraded")
	}
	d.observe(50*time.Millisecond, 0)
	if !d.degraded() {
		t.Fatal("over-limit latency did not trip")
	}
	d.observe(time.Millisecond, 0)
	d.observe(time.Millisecond, 0)
	if !d.degraded() {
		t.Fatal("recovered before RecoverAfter healthy observations")
	}
	d.observe(50*time.Millisecond, 0) // relapse resets the run
	d.observe(time.Millisecond, 0)
	d.observe(time.Millisecond, 0)
	if !d.degraded() {
		t.Fatal("relapse did not reset the healthy run")
	}
	d.observe(time.Millisecond, 0)
	if d.degraded() {
		t.Fatal("did not recover after RecoverAfter consecutive healthy observations")
	}
	// Queue depth alone also trips it.
	d.observe(time.Millisecond, 101)
	if !d.degraded() {
		t.Fatal("over-limit queue depth did not trip")
	}
}
