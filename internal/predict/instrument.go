package predict

import (
	"sync"
	"sync/atomic"
	"time"

	"linkpred/internal/obs"
)

// This file is the telemetry shim between the scoring engine and
// internal/obs. Each registry row resolves its metric handles once
// (rowMetrics); the row's Predict and ScorePairs open an obsRun, and end()
// publishes the call's totals through those handles. The engine tallies
// where the work already happens: each sweep-level top-k counts the
// candidates offered to it and its evictions in plain fields of a selector
// one worker owns, source sweeps add their node count once per chunk, and
// end() sums the selectors after the fan-out has joined. No hot loop
// touches shared state. When telemetry is disabled beginRun returns nil and
// every hook degrades to a nil-pointer check (see
// BenchmarkPredictTelemetry). Recording never influences scores,
// candidate order, or tie-breaking, so the engine's bit-identical
// deterministic output is preserved with telemetry on
// (TestTelemetryPreservesDeterminism).

// rowCounters are the standard per-algorithm counters, in the order
// obsRun.end publishes them.
var rowCounters = [...]string{"pairs_scored", "nodes_swept", "topk_evictions", "candidates_generated", "sources_pruned"}

// rowMetrics are one algorithm's handles: a latency histogram per
// operation and the rowCounters.
type rowMetrics struct {
	predictNS, scoreNS *obs.Histogram
	counts             [len(rowCounters)]*obs.Counter
}

func newRowMetrics(alg string) *rowMetrics {
	p := "predict/" + alg + "/"
	m := &rowMetrics{predictNS: obs.GetHistogram(p + "predict_ns"), scoreNS: obs.GetHistogram(p + "score_pairs_ns")}
	for i, name := range rowCounters {
		m.counts[i] = obs.GetCounter(p + name)
	}
	return m
}

// obsRun accumulates one instrumented algorithm call.
type obsRun struct {
	m     *rowMetrics
	lat   *obs.Histogram
	start time.Time
	pairs int64        // the ScorePairs batch; end adds the selectors' offers
	cands int64        // candidate pairs the pruned sweep generated
	prune int64        // sources skipped by the top-k threshold bound
	nodes atomic.Int64 // source nodes swept, added once per chunk

	mu      sync.Mutex
	tops    []*topK // the call's sweep-level selectors, summed by end
	topsBuf [8]*topK
}

// beginRun opens a run recorder for one of the row's operations, timed on
// lat and starting from a batch of pairs (ScorePairs), or returns nil when
// telemetry is off. All obsRun methods are nil-safe.
func beginRun(m *rowMetrics, lat *obs.Histogram, pairs int64) *obsRun {
	if !obs.Enabled() {
		return nil
	}
	r := &obsRun{m: m, lat: lat, start: time.Now(), pairs: pairs}
	r.tops = r.topsBuf[:0] // a sweep at up to 8 workers allocates nothing more
	return r
}

// addNodes records a chunk of swept source nodes.
func (r *obsRun) addNodes(n int64) {
	if r != nil {
		r.nodes.Add(n)
	}
}

// track registers a sweep-level selector whose tallies end() publishes.
func (r *obsRun) track(t *topK) {
	if r != nil {
		r.mu.Lock()
		r.tops = append(r.tops, t)
		r.mu.Unlock()
	}
}

// end publishes the run. It runs after the call's fan-outs have joined, so
// the selectors' plain tallies are final.
func (r *obsRun) end() {
	if r == nil {
		return
	}
	r.lat.Since(r.start)
	var evict int64
	for _, t := range r.tops {
		r.pairs += t.offered
		evict += t.evicted
	}
	// pairs_scored is always published; a counter of work the call never
	// did stays out of the dump.
	for i, n := range [...]int64{r.pairs, r.nodes.Load(), evict, r.cands, r.prune} {
		if n != 0 || i == 0 {
			r.m.counts[i].Add(n)
		}
	}
}
