// Package liveeval closes the accuracy loop for the live server with
// prequential ("test-then-train") evaluation: every top-k prediction the
// server answers is recorded, and every subsequently ingested edge is
// scored against the predictions that existed *before* it arrived. The
// result is a rolling, per-algorithm measurement of whether predictions
// actually come true on the growing network itself — the paper's central
// empirical stance, applied to serving ("Evaluating Link Prediction
// Methods", Yang, Lichtenwalter & Chawla, prescribes the hit@k / precision
// family; Fish & Caceres motivate the sampling-robust windowed variants).
//
// Semantics, pinned by the test layer:
//
//   - A recorded prediction set is keyed by its snapshot epoch (the
//     published snapshot's sequence number). Per algorithm, at most one set
//     per epoch is kept (re-recording an epoch is a no-op — the engine's
//     determinism makes re-polls identical), in a bounded ring of the most
//     recent epochs.
//   - An ingested edge, identified by its trace index, is eligible against
//     a set only if the edge is not part of the snapshot the prediction was
//     computed on AND the set was recorded before the edge arrived. An edge
//     arriving in the same ingest batch that precedes the prediction
//     therefore never counts (the epoch-boundary rule).
//   - Each eligible edge is scored against the newest eligible set of each
//     algorithm: a hit if the pair is among its (not yet hit) predictions.
//     A pair hits a given set at most once.
//   - Scoring maintains cumulative counters (hits, reciprocal-rank sum,
//     predicted pairs), observation-count-decayed rates (deterministic: no
//     wall clock), and a sliding window of recent outcomes from which the
//     windowed hit rate and average-precision (AUPR estimate) series are
//     computed.
//
// All state transitions are deterministic functions of the Record /
// ObserveEdge call sequence, so a serving trace driven at engine worker
// counts 1 and 4 produces bit-identical statistics (the engine's top-k is
// worker-invariant, and this package adds no randomness and no clocks).
package liveeval

import (
	"math"
	"sort"
	"sync"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
)

// Config parameterizes an Engine. The zero value takes defaults.
type Config struct {
	// TopK bounds how many ranked pairs each recorded prediction retains
	// (default 128). Hits beyond the retained prefix are not credited.
	TopK int
	// Ring is how many recent prediction sets (epochs) are kept per
	// algorithm (default 4).
	Ring int
	// Window is the sliding-window length, in scored edges per algorithm,
	// behind the windowed hit-rate and AUPR series (default 1024).
	Window int
	// HalfLife is the number of scored edges over which the decayed rates
	// lose half their weight (default 256). The decay is per observation,
	// not per second, keeping the series deterministic.
	HalfLife int
}

func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = 128
	}
	if c.Ring <= 0 {
		c.Ring = 4
	}
	if c.Window <= 0 {
		c.Window = 1024
	}
	if c.HalfLife <= 0 {
		c.HalfLife = 256
	}
	return c
}

// key canonicalizes a node pair into a map key (same packing as
// predict.PairKey, duplicated to keep this package free of a predict
// dependency so benchmarks in predict can import it).
func key(u, v graph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// predSet is one recorded top-k prediction.
type predSet struct {
	epoch int64
	// minIndex is the first trace index eligible to score against this
	// set: max(snapshot edge count, trace length at record time). Edges
	// below it either are already part of the predicted-on snapshot or
	// arrived before the prediction existed.
	minIndex int
	// rank maps pair key to 1-based rank; hit pairs are deleted so a pair
	// is credited at most once per set.
	rank map[uint64]int
	size int
	hits int
}

// winEntry is one scored-edge outcome in the sliding window.
type winEntry struct {
	hit  bool
	rank int32
}

// algState is the per-algorithm prequential state.
type algState struct {
	ring []*predSet // oldest first

	recorded       int64
	predictedPairs int64
	scored         int64
	hits           int64
	rrSum          float64

	decayHit float64 // EWMA of the per-edge hit indicator

	win     []winEntry // grows to Config.Window, then wraps at winNext
	winNext int

	// Telemetry handles, resolved when the algorithm is first seen. The
	// five accuracy gauges are callbacks computed at scrape time,
	// registered at the first edge scored while telemetry is on.
	recordedC, scoredC, hitsC *obs.Counter
	hitRank                   *obs.Histogram
	exported                  bool
}

// Engine is the prequential evaluation engine. Create with New; all
// methods are safe for concurrent use.
type Engine struct {
	cfg   Config
	alpha float64

	mu   sync.Mutex
	algs map[string]*algState
}

// New returns an engine with cfg (zero fields take defaults).
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:   cfg,
		alpha: 1 - math.Exp2(-1/float64(cfg.HalfLife)),
		algs:  make(map[string]*algState),
	}
}

// Config returns the engine's resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// Record stores one served top-k prediction for alg: pairs are the ranked
// candidates (best first, dense node IDs), epoch the published snapshot's
// sequence number, snapshotEdges the number of trace edges folded into
// that snapshot, and traceLen the trace length when the prediction was
// served. Re-recording an (alg, epoch) already in the ring is a no-op.
func (e *Engine) Record(alg string, epoch int64, snapshotEdges, traceLen int, pairs [][2]graph.NodeID) {
	if len(pairs) > e.cfg.TopK {
		pairs = pairs[:e.cfg.TopK]
	}
	minIndex := snapshotEdges
	if traceLen > minIndex {
		minIndex = traceLen
	}
	e.mu.Lock()
	st := e.state(alg)
	for _, set := range st.ring {
		if set.epoch == epoch {
			e.mu.Unlock()
			return
		}
	}
	set := &predSet{epoch: epoch, minIndex: minIndex, rank: make(map[uint64]int, len(pairs)), size: len(pairs)}
	for i, p := range pairs {
		k := key(p[0], p[1])
		if _, dup := set.rank[k]; !dup {
			set.rank[k] = i + 1
		}
	}
	st.ring = append(st.ring, set)
	if len(st.ring) > e.cfg.Ring {
		st.ring = st.ring[1:]
	}
	st.recorded++
	st.predictedPairs += int64(set.size)
	st.recordedC.Inc()
	e.mu.Unlock()
}

// ObserveEdge scores one accepted ingested edge (dense node IDs) at its
// 0-based trace index against every algorithm's newest eligible prediction
// set, updating the cumulative, decayed, and windowed series.
func (e *Engine) ObserveEdge(u, v graph.NodeID, traceIndex int) {
	k := key(u, v)
	e.mu.Lock()
	defer e.mu.Unlock()
	for alg, st := range e.algs {
		// Newest eligible set: recorded before the edge arrived, snapshot
		// not already containing it.
		var set *predSet
		for i := len(st.ring) - 1; i >= 0; i-- {
			if st.ring[i].minIndex <= traceIndex {
				set = st.ring[i]
				break
			}
		}
		if set == nil {
			continue
		}
		st.scored++
		st.scoredC.Inc()
		rank, hit := set.rank[k]
		ind := 0.0
		if hit {
			ind = 1
			delete(set.rank, k)
			set.hits++
			st.hits++
			st.rrSum += 1 / float64(rank)
			st.hitsC.Inc()
			st.hitRank.Observe(int64(rank))
		}
		st.decayHit += e.alpha * (ind - st.decayHit)
		entry := winEntry{hit: hit, rank: int32(rank)}
		if len(st.win) < e.cfg.Window {
			st.win = append(st.win, entry)
		} else {
			st.win[st.winNext] = entry
		}
		st.winNext = (st.winNext + 1) % e.cfg.Window
		if !st.exported && obs.Enabled() {
			st.exported = true
			e.exportGauges(alg, st)
		}
	}
}

// state returns (creating if needed) the per-algorithm state. Callers hold
// e.mu.
func (e *Engine) state(alg string) *algState {
	st, ok := e.algs[alg]
	if !ok {
		lbl := `{alg="` + alg + `"}`
		st = &algState{
			recordedC: obs.GetCounter("liveeval/predictions_recorded" + lbl),
			scoredC:   obs.GetCounter("liveeval/edges_scored" + lbl),
			hitsC:     obs.GetCounter("liveeval/hits" + lbl),
			hitRank:   obs.GetHistogram("liveeval/hit_rank" + lbl),
		}
		e.algs[alg] = st
	}
	return st
}

// exportGauges registers alg's accuracy gauges as callbacks that summarize
// its state at scrape time, so scoring an edge pushes nothing. A newer
// engine in the same process replaces them. Callers hold e.mu.
func (e *Engine) exportGauges(alg string, st *algState) {
	lbl := `{alg="` + alg + `"}`
	for name, val := range map[string]func(AlgStats) float64{
		"liveeval/hit_rate":        func(s AlgStats) float64 { return s.DecayedHitRate },
		"liveeval/hit_rate_window": func(s AlgStats) float64 { return s.WindowHitRate },
		"liveeval/mrr":             func(s AlgStats) float64 { return s.MRR },
		"liveeval/precision_at_k":  func(s AlgStats) float64 { return s.PrecisionAtK },
		"liveeval/aupr_window":     func(s AlgStats) float64 { return s.WindowAUPR },
	} {
		obs.SetGaugeFunc(name+lbl, func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return val(st.stats())
		})
	}
}

// AlgStats is the prequential measurement of one algorithm.
type AlgStats struct {
	// Recorded is the number of prediction sets in the books;
	// PredictedPairs the total ranked pairs they contributed.
	Recorded       int64 `json:"recorded"`
	PredictedPairs int64 `json:"predicted_pairs"`
	// ScoredEdges is the number of ingested edges scored against this
	// algorithm (edges with an eligible prediction set); Hits how many of
	// them were predicted.
	ScoredEdges int64 `json:"scored_edges"`
	Hits        int64 `json:"hits"`
	// MRR is the mean reciprocal rank over scored edges (misses count 0).
	MRR float64 `json:"mrr"`
	// PrecisionAtK is the fraction of all predicted pairs that have (so
	// far) materialized as edges.
	PrecisionAtK float64 `json:"precision_at_k"`
	// DecayedHitRate is the observation-decayed hit rate (half-life
	// Config.HalfLife scored edges).
	DecayedHitRate float64 `json:"decayed_hit_rate"`
	// WindowHitRate and WindowAUPR summarize the last Config.Window scored
	// edges: the raw hit fraction, and the average precision over the hit
	// ranks (an AUPR estimate on the windowed outcome stream).
	WindowHitRate float64 `json:"window_hit_rate"`
	WindowAUPR    float64 `json:"window_aupr"`
}

// stats summarizes one algState. Callers hold e.mu.
func (st *algState) stats() AlgStats {
	s := AlgStats{
		Recorded:       st.recorded,
		PredictedPairs: st.predictedPairs,
		ScoredEdges:    st.scored,
		Hits:           st.hits,
		DecayedHitRate: st.decayHit,
	}
	if st.scored > 0 {
		s.MRR = st.rrSum / float64(st.scored)
	}
	if st.predictedPairs > 0 {
		s.PrecisionAtK = float64(st.hits) / float64(st.predictedPairs)
	}
	if len(st.win) > 0 {
		hits := 0
		var ranks []int
		for _, e := range st.win {
			if e.hit {
				hits++
				ranks = append(ranks, int(e.rank))
			}
		}
		s.WindowHitRate = float64(hits) / float64(len(st.win))
		s.WindowAUPR = averagePrecision(ranks)
	}
	return s
}

// averagePrecision computes the average precision of a top-k list whose
// hits landed at the given 1-based ranks: the mean, over hits, of
// (hits at rank <= r) / r. Ranks from different epochs' sets may repeat;
// each term is clamped to 1 so the estimate stays a valid precision.
func averagePrecision(ranks []int) float64 {
	if len(ranks) == 0 {
		return 0
	}
	sort.Ints(ranks)
	ap := 0.0
	for i, r := range ranks {
		p := float64(i+1) / float64(r)
		if p > 1 {
			p = 1
		}
		ap += p
	}
	return ap / float64(len(ranks))
}

// Stats returns the current measurement of one algorithm.
func (e *Engine) Stats(alg string) (AlgStats, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.algs[alg]
	if !ok {
		return AlgStats{}, false
	}
	return st.stats(), true
}

// All returns the stats of every algorithm seen, keyed by name.
func (e *Engine) All() map[string]AlgStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]AlgStats, len(e.algs))
	for alg, st := range e.algs {
		out[alg] = st.stats()
	}
	return out
}
