// Package serve is the live prediction service: it ingests timestamped
// edge events into a growing trace, publishes immutable snapshots on a
// configurable cadence via atomic pointer swap, and answers top-k and
// pair-score queries from a bounded worker pool.
//
// The serving contract, pinned by the test layer in this package:
//
//   - Snapshots are immutable and published atomically. Every response
//     reports the snapshot (seq, edge count) it was computed against, and
//     its payload is bit-identical to running the offline Predict /
//     ScorePairs path on that same snapshot (TestServeRaceIntegration,
//     TestGoldenEndToEnd).
//   - Requests carry context deadlines. An expired context yields
//     context.DeadlineExceeded promptly: the prediction engine checks the
//     context once per chunk claim (predict.Options.Ctx), so a cancelled
//     sweep stops within one chunk of work (TestDeadlines).
//   - The request queue is bounded. A full queue rejects with
//     ErrOverloaded (HTTP 429) instead of blocking the caller — load sheds
//     at the front door, never as unbounded memory growth.
//   - Same-algorithm pair-score requests waiting in the queue coalesce
//     into one ScorePairs sweep (per-pair results are independent of batch
//     composition, so coalescing is invisible in the payload).
//   - Under pressure — rolling p95 latency or queue depth over threshold —
//     latent-family requests (Katz, KatzSC, Rescal) degrade to fused
//     local-metric proxies and the response is flagged Degraded, with
//     ServedBy naming the proxy. With a prequential engine attached
//     (Config.Eval) the proxy is chosen by measured live accuracy-per-cost;
//     otherwise a static table applies. Recovery re-enables the latent path
//     after a run of healthy observations (TestDegradationProperty).
//   - With Config.Eval set, the accuracy loop is closed: every /predict
//     response is recorded into the prequential engine and every accepted
//     ingest edge is scored against the predictions that existed before it
//     arrived, producing live per-algorithm hit@k / MRR / precision /
//     windowed-AUPR series in /metrics. The statistics are a deterministic
//     function of the request sequence — bit-identical at any engine
//     worker count (TestLiveEvalEndToEnd).
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/liveeval"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
	"linkpred/internal/wal"
)

// Event is one timestamped edge-creation event in external ID space.
// External IDs are arbitrary non-negative integers; the server remaps them
// densely in first-seen order (IDMap).
type Event struct {
	U int64 `json:"u"`
	V int64 `json:"v"`
	T int64 `json:"t"`
}

// Config parameterizes a Server. The zero value serves with defaults.
type Config struct {
	// SnapshotEvery publishes a new snapshot every N accepted edges
	// (default 512). Explicit Flush publishes regardless of cadence.
	SnapshotEvery int
	// Workers is the scoring worker pool size (default 2). Each worker
	// serves one request (or one coalesced batch) at a time.
	Workers int
	// QueueDepth bounds the request queue (default 256); a full queue
	// rejects with ErrOverloaded.
	QueueDepth int
	// MaxBatch bounds how many queued same-algorithm score requests
	// coalesce into one ScorePairs sweep (default 16; 1 disables).
	MaxBatch int
	// Opt carries the engine options for every query. A zero Opt takes
	// predict.DefaultOptions; Opt.Workers is the per-request engine
	// parallelism (default 1 — total concurrency is Workers × Opt.Workers).
	Opt predict.Options
	// Warm prebuilds the new snapshot's shared artifacts (degree
	// order, latent factors) for warmAlgorithms off the request path after
	// each publish.
	Warm bool
	// Degrade tunes the graceful-degradation controller.
	Degrade DegradeConfig
	// Trace warm-starts the server from an existing history; ownership of
	// the trace transfers to the server. External IDs are the trace's own
	// dense IDs.
	Trace *graph.Trace
	// OnPublish, when set, observes every snapshot immediately before it
	// becomes visible to queries. It runs on the ingest path under the
	// server's ingest lock: keep it fast and do not call back into the
	// server.
	OnPublish func(*Snapshot)
	// Resolve overrides algorithm resolution (default predict.ByName).
	// Tests inject slow or instrumented scorers through it; the
	// degradation proxies resolve through it too.
	Resolve func(name string) (predict.Algorithm, error)
	// Eval, when set, closes the accuracy loop: every /predict response is
	// recorded into the prequential engine under the algorithm that
	// actually served it, every accepted ingest edge is scored against the
	// predictions that existed before it arrived, and the degradation
	// controller routes latent algorithms to the proxy with the best
	// measured accuracy-per-cost instead of the static table.
	Eval *liveeval.Engine
	// WAL, when set, makes ingest durable: every accepted edge is appended
	// to a write-ahead log on this storage and group-committed (one fsync
	// per Ingest batch) before Ingest returns, so an acked event survives a
	// crash. New recovers any prior state found on the storage — checkpoint
	// plus tail replay — before serving; Config.Trace then acts only as the
	// warm-start base for an empty log. After a log failure the server
	// rejects further writes with ErrDurability (HTTP 500) but keeps
	// serving queries.
	WAL wal.Storage
	// WALOptions tunes the log's group-commit batch and segment size; the
	// zero value takes the wal package defaults.
	WALOptions wal.Options
	// CheckpointEvery writes a checkpoint snapshot after the replay horizon
	// (trace edges past the last checkpoint) grows by N edges, bounding
	// recovery time and enabling segment pruning (default 4096; negative
	// disables). Checkpoints serialize in the background, off the ingest
	// path. Ignored without WAL.
	CheckpointEvery int
}

// DegradeConfig tunes graceful degradation. Zero fields take defaults.
type DegradeConfig struct {
	// P95 is the rolling p95 latency threshold (default 250ms).
	P95 time.Duration
	// QueueDepth is the queue-length threshold (default 3/4 of the request
	// queue capacity).
	QueueDepth int
	// Window is the rolling latency window length (default 32).
	Window int
	// RecoverAfter is the number of consecutive healthy observations that
	// re-enable the latent path (default 16).
	RecoverAfter int
	// Disabled turns the controller off: nothing ever degrades.
	Disabled bool
}

// Snapshot is one published immutable state of the ingested network.
type Snapshot struct {
	Graph *graph.Graph
	// Seq increases by one per publication; 0 is the initial snapshot.
	Seq int64
	// Edges is the number of trace edge events folded into Graph.
	Edges int
	// Time is the snapshot's trace time (last applied event).
	Time int64
}

// PairScore is one scored pair in external ID space. DU/DV carry the
// snapshot's dense node IDs on shard-restricted predict responses only
// (omitempty elsewhere — dense 0 decodes back to 0, so omission is
// lossless): the ranked order's tie-break hash is a function of the dense
// pair, so a cluster router needs them to merge partial lists bit-
// identically to a single-process sweep.
type PairScore struct {
	U     int64        `json:"u"`
	V     int64        `json:"v"`
	DU    graph.NodeID `json:"du,omitempty"`
	DV    graph.NodeID `json:"dv,omitempty"`
	Score float64      `json:"score"`
}

// Result is the payload of one answered query.
type Result struct {
	// Alg is the requested algorithm; ServedBy the one that actually ran
	// (the degradation proxy when Degraded).
	Alg      string `json:"alg"`
	ServedBy string `json:"served_by"`
	Degraded bool   `json:"degraded"`
	// SnapshotSeq/SnapshotEdges/SnapshotTime identify the published
	// snapshot the scores were computed against.
	SnapshotSeq   int64 `json:"snapshot_seq"`
	SnapshotEdges int   `json:"snapshot_edges"`
	SnapshotTime  int64 `json:"snapshot_time"`
	// SnapshotNodes and ShardRange appear only on shard-restricted predict
	// responses (omitempty keeps unrestricted payloads byte-identical to
	// pre-cluster servers): the snapshot's node count, from which a router
	// derives every shard's owned range, and the [lo, hi) source range this
	// response actually swept.
	SnapshotNodes int     `json:"snapshot_nodes,omitempty"`
	ShardRange    *[2]int `json:"shard_range,omitempty"`
	// Pairs holds the ranked top-k (predict) or the per-request scores in
	// request order (score).
	Pairs []PairScore `json:"pairs"`
}

// Health is the /healthz payload. SnapshotSeq is the serving epoch and
// TraceEdges the replicated-ingest position — together they let a cluster
// router check shard alignment from the health probe alone, with no side
// channel into the ingest path.
type Health struct {
	OK            bool  `json:"ok"`
	SnapshotSeq   int64 `json:"snapshot_seq"`
	SnapshotEdges int   `json:"snapshot_edges"`
	SnapshotTime  int64 `json:"snapshot_time"`
	TraceEdges    int   `json:"trace_edges"`
	Nodes         int   `json:"nodes"`
	Degraded      bool  `json:"degraded"`
	QueueDepth    int   `json:"queue_depth"`
	// SnapshotBytes is the resident adjacency footprint of the published
	// snapshot.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// WAL reports durability state on WAL-backed servers (absent
	// otherwise): commit/checkpoint positions, the boot-time recovery
	// outcome, and the sticky failure latch.
	WAL *WALStatus `json:"wal,omitempty"`
}

var (
	// ErrOverloaded rejects a request when the bounded queue is full; the
	// HTTP layer maps it to 429.
	ErrOverloaded = errors.New("serve: request queue full")
	// ErrClosed rejects requests after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrBatchAborted tells a coalesced follower that its batch leader's
	// deadline cancelled the shared sweep mid-flight; the request is safe
	// to retry (HTTP 503).
	ErrBatchAborted = errors.New("serve: batch aborted by leader deadline; retry")
)

// latentProxy maps each latent-family algorithm to the fused local metric
// that answers for it under degradation. The proxies run zero-allocation
// wedge sweeps (DESIGN.md §7) — orders of magnitude cheaper than an
// eigensolve or ALS on a cold snapshot — and remain fully deterministic, so
// a degraded response is exactly the proxy algorithm's own output.
var latentProxy = map[string]string{
	"Katz":   "AA",
	"KatzSC": "RA",
	"Rescal": "CN",
}

// warmAlgorithms is what Config.Warm prebuilds for after each publish: the
// latent factorizations (seconds on a cold snapshot) and the log-degree
// table of the weighted local metrics.
var warmAlgorithms = []string{"AA", "BAA", "Katz", "KatzSC", "Rescal"}

type reqKind int

const (
	kindPredict reqKind = iota
	kindScore
)

type outcome struct {
	res *Result
	err error
}

type request struct {
	kind reqKind
	alg  string
	k    int
	// shards > 1 marks a shard-restricted predict: sweep only the sources
	// owned by shard index shard of shards (computed against the answering
	// snapshot's node count).
	shard, shards int
	// ext holds the queried pairs in external IDs (score only); dense the
	// remapped pairs with ok=false for endpoints unknown at submit time.
	ext   [][2]int64
	dense []densePair
	ctx   context.Context
	done  chan outcome
}

type densePair struct {
	u, v graph.NodeID
	ok   bool
}

// Server is the live prediction service. Create with New, serve HTTP via
// Handler, and stop with Close.
type Server struct {
	cfg   Config
	queue chan *request
	done  chan struct{}
	wg    sync.WaitGroup

	closeMu sync.RWMutex
	closed  bool

	// mu serializes the ingest path: trace growth and snapshot publication.
	mu      sync.Mutex
	trace   *graph.Trace
	builder *graph.IncrementalBuilder
	seq     int64
	pending int

	// ids is the external↔dense ID map, which queries read while ingest
	// extends it.
	ids *IDMap

	cur atomic.Pointer[Snapshot]
	deg *degrader

	// traceLen mirrors len(trace.Edges) for lock-free reads on the query
	// path (prequential eligibility floors, publish-lag gauge);
	// lastPublishNS is the wall time of the latest snapshot publication
	// (snapshot-age gauge).
	traceLen      atomic.Int64
	lastPublishNS atomic.Int64
	// lastDeltaRows is the builder's DeltaRows at the previous publication;
	// the per-publish difference feeds the publish_delta_rows counter.
	// Guarded by mu (only publishLocked touches it).
	lastDeltaRows int64

	// costMu guards cost, the per-served-algorithm decayed mean latency
	// feeding the accuracy-per-cost routing.
	costMu sync.Mutex
	cost   map[string]float64

	// wal is the write-ahead log (nil without Config.WAL). The mirrored
	// atomics below keep Health and the gauges off the log's lock; the
	// sticky walFailed latch plus walErrStr record the first durability
	// error. walRecovered pins the boot-time recovery outcome.
	wal           *wal.Log
	walRecovered  walRecoveryInfo
	walAppendedN  atomic.Uint64
	walCommittedN atomic.Uint64
	walSegmentsN  atomic.Int64
	ckptEdges     atomic.Int64
	ckptBusy      atomic.Bool
	walFailed     atomic.Bool
	walErrMu      sync.Mutex
	walErrStr     string
}

// New starts a server: applies defaults, publishes the initial snapshot
// (the warm-start trace, or an empty graph), and launches the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 512
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	if cfg.Opt.PPRAlpha == 0 {
		seed, workers := cfg.Opt.Seed, cfg.Opt.Workers
		cfg.Opt = predict.DefaultOptions()
		if seed != 0 {
			cfg.Opt.Seed = seed
		}
		cfg.Opt.Workers = workers
	}
	if cfg.Opt.Workers <= 0 {
		cfg.Opt.Workers = 1
	}
	if cfg.Opt.Workers > runtime.GOMAXPROCS(0) {
		cfg.Opt.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Resolve == nil {
		cfg.Resolve = predict.ByName
	}
	if cfg.Trace != nil {
		if err := cfg.Trace.Validate(); err != nil {
			return nil, fmt.Errorf("serve: warm-start trace: %w", err)
		}
	}
	tr := cfg.Trace
	var wlog *wal.Log
	var rec *wal.Recovered
	if cfg.WAL != nil {
		if cfg.CheckpointEvery == 0 {
			cfg.CheckpointEvery = 4096
		}
		var err error
		wlog, rec, err = wal.Open(cfg.WAL, cfg.WALOptions, cfg.Trace)
		if err != nil {
			return nil, fmt.Errorf("serve: wal recovery: %w", err)
		}
		tr = rec.Trace
	}
	if tr == nil {
		tr = &graph.Trace{Name: "live"}
	}
	builder := graph.NewIncrementalBuilder(tr)
	if rec != nil && rec.Graph != nil {
		// Seed the builder with the checkpoint's zero-copy CSR so the boot
		// publish materializes only the replayed tail, not the whole graph.
		builder = graph.NewIncrementalBuilderFrom(tr, rec.Graph, int(rec.CheckpointEdges))
	}
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *request, cfg.QueueDepth),
		done:    make(chan struct{}),
		trace:   tr,
		builder: builder,
		deg:     newDegrader(cfg.Degrade, cfg.QueueDepth),
		cost:    make(map[string]float64),
	}
	s.traceLen.Store(int64(len(tr.Edges)))
	if rec != nil {
		// The log's ID maps are authoritative: external IDs recovered from
		// the records themselves (or identity for a warm-start prefix).
		s.ids = NewIDMap(rec.Remap, rec.Rev)
		s.wal = wlog
		s.walRecovered = walRecoveryInfo{
			edges:     len(tr.Edges),
			tail:      rec.TailRecords,
			truncated: rec.Truncated,
		}
		s.ckptEdges.Store(int64(rec.CheckpointEdges))
		s.walSyncStats()
	} else {
		// Warm-start IDs are the trace's own dense IDs.
		ext := make([]int64, tr.NumNodes())
		for i := range ext {
			ext[i] = int64(i)
		}
		s.ids = NewIDMap(nil, ext)
	}
	s.mu.Lock()
	s.seq = -1 // the initial publication is seq 0
	if rec != nil && rec.LastPub != nil {
		// Restore the serving epoch: republishing exactly the last logged
		// publication keeps its seq (the boot snapshot is bit-identical to
		// the pre-crash one); recovering past it — edges acked after the
		// last publish — advances the epoch so routers never see one seq
		// with two different edge counts.
		if rec.LastPub.Edges == uint64(len(tr.Edges)) {
			s.seq = rec.LastPub.Seq - 1
		} else {
			s.seq = rec.LastPub.Seq
		}
	}
	s.publishLocked()
	if s.wal != nil {
		if err := s.walCommit(); err != nil {
			s.mu.Unlock()
			wlog.Close()
			return nil, fmt.Errorf("serve: wal boot commit: %w", err)
		}
	}
	s.mu.Unlock()
	s.registerGauges()
	if s.wal != nil {
		s.registerWALGauges()
		if obs.Enabled() {
			obs.GetCounter("serve/wal_recovered_edges").Add(int64(s.walRecovered.edges))
			obs.GetCounter("serve/wal_recovered_tail").Add(int64(s.walRecovered.tail))
			if s.walRecovered.truncated {
				obs.GetCounter("serve/wal_recovered_truncations").Inc()
			}
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// registerGauges publishes the serving-health callback gauges: evaluated
// at scrape time, so snapshot age and queue depth are current without the
// server pushing updates. Re-registration (a newer server in the same
// process) replaces the callbacks; the closures only read atomics and are
// safe after Close.
func (s *Server) registerGauges() {
	obs.SetGaugeFunc("serve/snapshot_seq", func() float64 {
		return float64(s.cur.Load().Seq)
	})
	obs.SetGaugeFunc("serve/snapshot_edges", func() float64 {
		return float64(s.cur.Load().Edges)
	})
	obs.SetGaugeFunc("serve/snapshot_age_seconds", func() float64 {
		return time.Duration(time.Now().UnixNano() - s.lastPublishNS.Load()).Seconds()
	})
	obs.SetGaugeFunc("serve/publish_lag_edges", func() float64 {
		return float64(s.traceLen.Load() - int64(s.cur.Load().Edges))
	})
	obs.SetGaugeFunc("serve/trace_edges", func() float64 {
		return float64(s.traceLen.Load())
	})
	obs.SetGaugeFunc("serve/queue_len", func() float64 {
		return float64(len(s.queue))
	})
	obs.SetGaugeFunc("serve/degraded", func() float64 {
		if s.deg.degraded() {
			return 1
		}
		return 0
	})
	obs.SetGaugeFunc("serve/snapshot_bytes", func() float64 {
		return float64(s.cur.Load().Graph.ResidentBytes())
	})
}

// Close stops the server: in-flight requests finish, queued requests are
// answered with ErrClosed, and new calls are rejected. Idempotent.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	close(s.done)
	s.closeMu.Unlock()
	s.wg.Wait() // workers, warmers, and any in-flight background checkpoint
	if s.wal != nil {
		s.mu.Lock()
		if err := s.wal.Close(); err != nil && !s.walFailed.Load() {
			s.walFail(err)
		}
		s.mu.Unlock()
	}
	for {
		select {
		case r := <-s.queue:
			r.done <- outcome{err: ErrClosed}
		default:
			return
		}
	}
}

// Snapshot returns the currently published snapshot.
func (s *Server) Snapshot() *Snapshot { return s.cur.Load() }

// Degraded reports whether the degradation controller currently routes
// latent-family requests to their local-metric proxies.
func (s *Server) Degraded() bool { return s.deg.degraded() }

// Health reports the serving state for /healthz. It reads only atomics —
// never s.mu — so a health probe answers immediately even while a long
// ingest batch holds the ingest lock; a router polling for epoch alignment
// must not block behind the very replication it is waiting on.
func (s *Server) Health() Health {
	snap := s.cur.Load()
	return Health{
		OK:            true,
		SnapshotSeq:   snap.Seq,
		SnapshotEdges: snap.Edges,
		SnapshotTime:  snap.Time,
		TraceEdges:    int(s.traceLen.Load()),
		Nodes:         snap.Graph.NumNodes(),
		Degraded:      s.deg.degraded(),
		QueueDepth:    len(s.queue),
		SnapshotBytes: snap.Graph.ResidentBytes(),
		WAL:           s.walStatus(),
	}
}

// Ingest appends edge events to the live trace, publishing snapshots on
// the configured cadence. Events with negative IDs or equal endpoints are
// rejected individually; the rest are accepted in order. It returns the
// accepted and rejected counts.
//
// On a WAL-backed server the return is the durability ack: every accepted
// event has been appended to the log and group-committed (fsynced) before
// Ingest returns nil. A log failure returns ErrDurability with zero counts
// — none of the batch should be considered durable — and latches the
// server read-only for writes.
func (s *Server) Ingest(events []Event) (accepted, rejected int, err error) {
	s.closeMu.RLock()
	closed := s.closed
	s.closeMu.RUnlock()
	if closed {
		return 0, 0, ErrClosed
	}
	if s.wal != nil && s.walFailed.Load() {
		return 0, 0, s.walErr()
	}
	s.mu.Lock()
	for _, ev := range events {
		u, v, ok := s.ids.Admit(ev)
		if !ok {
			rejected++
			continue
		}
		e, aerr := s.trace.Append(u, v, ev.T)
		if aerr != nil {
			rejected++
			continue
		}
		if s.wal != nil {
			// Log the event exactly as applied (post-clamp time, dense IDs):
			// replay re-runs Append and asserts it reproduces this edge.
			werr := s.wal.Append(wal.Record{ExtU: ev.U, ExtV: ev.V, U: e.U, V: e.V, T: e.Time})
			if werr != nil {
				s.walFail(werr)
				s.mu.Unlock()
				return 0, 0, s.walErr()
			}
		}
		accepted++
		s.pending++
		s.traceLen.Store(int64(len(s.trace.Edges)))
		if s.cfg.Eval != nil {
			// The prequential step: this edge, identified by its trace
			// index, is scored against every prediction recorded before it
			// arrived (the engine enforces the epoch boundary).
			s.cfg.Eval.ObserveEdge(u, v, len(s.trace.Edges)-1)
		}
		if s.pending >= s.cfg.SnapshotEvery {
			s.publishLocked()
		}
	}
	if s.wal != nil && accepted > 0 {
		if werr := s.walCommit(); werr != nil {
			s.mu.Unlock()
			return 0, 0, werr
		}
	}
	lag := len(s.trace.Edges) - s.builder.Applied()
	s.mu.Unlock()
	if obs.Enabled() {
		obs.GetCounter("serve/ingest_events").Add(int64(accepted))
		if rejected > 0 {
			obs.GetCounter("serve/ingest_rejected").Add(int64(rejected))
		}
		obs.GetHistogram("serve/ingest_lag_events").Observe(int64(lag))
	}
	return accepted, rejected, nil
}

// Flush publishes a snapshot of everything ingested so far, regardless of
// cadence, and returns it. With nothing new to publish it returns the
// current snapshot unchanged.
func (s *Server) Flush() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.builder.Applied() == len(s.trace.Edges) && s.cur.Load() != nil {
		return s.cur.Load()
	}
	snap := s.publishLocked()
	if s.wal != nil && !s.walFailed.Load() {
		// Make the publish marker durable too: Flush is the explicit
		// "everything so far" barrier.
		_ = s.walCommit()
	}
	return snap
}

// publishLocked builds the snapshot of the full ingested prefix and swaps
// it in. Callers hold s.mu. The OnPublish hook observes the snapshot
// before the pointer swap, so by the time any query can reference a seq
// the hook has already seen it.
func (s *Server) publishLocked() *Snapshot {
	g := s.builder.AtEdge(len(s.trace.Edges))
	s.seq++
	snap := &Snapshot{Graph: g, Seq: s.seq, Edges: s.builder.Applied(), Time: g.Time}
	s.pending = 0
	if s.cfg.OnPublish != nil {
		s.cfg.OnPublish(snap)
	}
	prev := s.cur.Load()
	s.cur.Store(snap)
	s.lastPublishNS.Store(time.Now().UnixNano())
	if s.wal != nil {
		s.walNotePublish(snap)
	}
	deltaRows := s.builder.DeltaRows() - s.lastDeltaRows
	s.lastDeltaRows = s.builder.DeltaRows()
	if obs.Enabled() {
		obs.GetCounter("serve/snapshots_published").Inc()
		if deltaRows > 0 {
			// Rows COW-cloned for this publish: the O(touched) work unit of the
			// delta-CSR path, and the quantity the CI alloc gate tracks.
			obs.GetCounter("serve/publish_delta_rows").Add(deltaRows)
		}
		if prev != nil {
			obs.GetHistogram("serve/publish_batch_edges").Observe(int64(snap.Edges - prev.Edges))
		}
	}
	if s.cfg.Warm {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			start := time.Now()
			predict.Warm(g, warmAlgorithms, s.cfg.Opt)
			if obs.Enabled() {
				obs.GetHistogram("serve/warm_ns").Observe(time.Since(start).Nanoseconds())
			}
		}()
	}
	return snap
}

// Predict answers a top-k query: the k highest-scored candidate links on
// the current snapshot under the named algorithm.
func (s *Server) Predict(ctx context.Context, alg string, k int) (*Result, error) {
	return s.PredictShard(ctx, alg, k, 0, 1)
}

// PredictShard answers the shard-restricted top-k query behind the cluster
// scatter/gather path: the top k among the candidate pairs owned by shard
// index shard of shards, computed against the server's current snapshot.
// shards <= 1 is the unrestricted Predict. The response carries the swept
// source range and the snapshot's node count so a router can merge
// same-epoch partial lists (predict.MergeTopK) and account for missing
// ranges when a shard is down.
func (s *Server) PredictShard(ctx context.Context, alg string, k, shard, shards int) (*Result, error) {
	if _, err := s.cfg.Resolve(alg); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("serve: k must be positive, got %d", k)
	}
	if shards > 1 && (shard < 0 || shard >= shards) {
		return nil, fmt.Errorf("serve: shard %d out of range for %d shards", shard, shards)
	}
	if shards < 1 {
		shards = 1
	}
	return s.submit(&request{kind: kindPredict, alg: alg, k: k, shard: shard, shards: shards, ctx: ctx, done: make(chan outcome, 1)})
}

// Score answers a pair-score query: one score per requested pair, in
// request order, in external IDs. Unknown endpoints and pairs beyond the
// current snapshot score zero.
func (s *Server) Score(ctx context.Context, alg string, pairs [][2]int64) (*Result, error) {
	if _, err := s.cfg.Resolve(alg); err != nil {
		return nil, err
	}
	req := &request{kind: kindScore, alg: alg, ext: pairs, ctx: ctx, done: make(chan outcome, 1)}
	req.dense = make([]densePair, len(pairs))
	for i, p := range pairs {
		u, uok := s.ids.Lookup(p[0])
		v, vok := s.ids.Lookup(p[1])
		req.dense[i] = densePair{u: u, v: v, ok: uok && vok}
	}
	return s.submit(req)
}

// submit enqueues a request (rejecting on overload or shutdown) and waits
// for its outcome. Every enqueued request is answered exactly once by the
// worker pool — deadline handling happens there, so the deadline counter
// counts each expired request exactly once.
func (s *Server) submit(req *request) (*Result, error) {
	if req.ctx == nil {
		req.ctx = context.Background()
	}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case s.queue <- req:
		s.closeMu.RUnlock()
	default:
		s.closeMu.RUnlock()
		if obs.Enabled() {
			obs.GetCounter("serve/overload_rejected").Inc()
		}
		return nil, ErrOverloaded
	}
	if obs.Enabled() {
		obs.GetHistogram("serve/queue_depth").Observe(int64(len(s.queue)))
	}
	out := <-req.done
	return out.res, out.err
}

// worker serves queued requests until Close, then drains the queue with
// ErrClosed so no caller is left waiting.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			for {
				select {
				case r := <-s.queue:
					r.done <- outcome{err: ErrClosed}
				default:
					return
				}
			}
		case r := <-s.queue:
			s.serveBatch(r)
		}
	}
}

// serveBatch serves one dequeued request, coalescing queued same-algorithm
// score requests behind a score leader into shared sweeps. Requests are
// grouped in arrival order; any non-score requests swept up by the drain
// are served after the score groups.
func (s *Server) serveBatch(leader *request) {
	batch := []*request{leader}
	if leader.kind == kindScore {
	drain:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case r := <-s.queue:
				batch = append(batch, r)
			default:
				break drain
			}
		}
	}
	snap := s.cur.Load()
	// Bucket score requests by algorithm, preserving arrival order.
	var algOrder []string
	groups := make(map[string][]*request)
	var rest []*request
	for _, r := range batch {
		if r.kind != kindScore {
			rest = append(rest, r)
			continue
		}
		if _, ok := groups[r.alg]; !ok {
			algOrder = append(algOrder, r.alg)
		}
		groups[r.alg] = append(groups[r.alg], r)
	}
	for _, alg := range algOrder {
		s.serveScoreGroup(groups[alg], snap)
	}
	for _, r := range rest {
		s.servePredict(r, snap)
	}
}

// finishDeadline answers a request whose context expired and counts it.
func (s *Server) finishDeadline(r *request) {
	if obs.Enabled() {
		obs.GetCounter("serve/deadline_exceeded").Inc()
	}
	r.done <- outcome{err: r.ctx.Err()}
}

// proxyCandidates are the fused local metrics eligible to answer for a
// degraded latent algorithm, in deterministic preference order.
var proxyCandidates = []string{"AA", "RA", "CN"}

// proxyFor picks the degradation proxy for a latent-family algorithm. With
// a prequential engine attached the choice is data-driven: the candidate
// with the best measured accuracy-per-cost — decayed live hit rate divided
// by decayed mean sweep latency — wins, so the controller degrades onto
// whichever cheap metric is actually predicting well on the live network.
// With no engine, or before any candidate has been measured, the static
// table applies.
func (s *Server) proxyFor(name string) (string, bool) {
	static, ok := latentProxy[name]
	if !ok {
		return "", false
	}
	if s.cfg.Eval == nil {
		return static, true
	}
	best, bestScore := static, -1.0
	for _, cand := range proxyCandidates {
		acc, measured := s.cfg.Eval.Accuracy(cand)
		if !measured {
			continue
		}
		if score := acc / s.costSeconds(cand); score > bestScore {
			best, bestScore = cand, score
		}
	}
	return best, true
}

// noteCost folds one served sweep's latency into the per-algorithm decayed
// mean feeding accuracy-per-cost routing.
func (s *Server) noteCost(alg string, lat time.Duration) {
	s.costMu.Lock()
	if c, ok := s.cost[alg]; ok {
		s.cost[alg] = c + 0.2*(lat.Seconds()-c)
	} else {
		s.cost[alg] = lat.Seconds()
	}
	s.costMu.Unlock()
}

// costSeconds returns the decayed mean latency of alg with a 1µs floor to
// keep the accuracy-per-cost ratio finite; an unmeasured algorithm prices
// at 1ms so a never-tried proxy is neither free nor prohibitive.
func (s *Server) costSeconds(alg string) float64 {
	s.costMu.Lock()
	c, ok := s.cost[alg]
	s.costMu.Unlock()
	switch {
	case !ok || c == 0:
		return 1e-3
	case c < 1e-6:
		return 1e-6
	}
	return c
}

// route resolves the algorithm serving a request: under degradation,
// latent-family names route to a local-metric proxy (accuracy-per-cost
// ranked when a prequential engine is attached).
func (s *Server) route(name string) (predict.Algorithm, string, bool, error) {
	if s.deg.degraded() {
		if proxy, ok := s.proxyFor(name); ok {
			a, err := s.cfg.Resolve(proxy)
			if err == nil {
				if obs.Enabled() {
					obs.GetCounter(`serve/degrade_routed{from="` + name + `",to="` + proxy + `"}`).Inc()
				}
				return a, proxy, true, nil
			}
		}
	}
	a, err := s.cfg.Resolve(name)
	return a, name, false, err
}

// servePredict runs one top-k sweep.
func (s *Server) servePredict(r *request, snap *Snapshot) {
	start := time.Now()
	if r.ctx.Err() != nil {
		s.finishDeadline(r)
		return
	}
	alg, served, degraded, err := s.route(r.alg)
	if err != nil {
		r.done <- outcome{err: err}
		return
	}
	opt := s.cfg.Opt
	opt.Ctx = r.ctx
	sharded := r.shards > 1
	var srange predict.SourceRange
	if sharded {
		// Cost-weighted boundaries, not equal-count: growth traces put the
		// hubs at low IDs, and equal-count ranges leave shard 0 with most of
		// the sweep. The cost model follows the *requested* algorithm's
		// kernel family (wedge, capped-wedge for the pruned bounded sweeps,
		// row-count for the latents), so BCN no longer inherits a boundary
		// priced for an unpruned hub sweep it will never run. The split is a
		// pure function of (snapshot, shards, alg) — every replica serving
		// the same epoch derives the same disjoint cover, and the router
		// learns the ranges from shard_range.
		model := predict.CostModelFor(r.alg)
		srange = predict.WeightedSourceRangeFor(snap.Graph, r.shard, r.shards, model)
		opt.SourceRange = &srange
	}
	pairs := alg.Predict(snap.Graph, r.k, opt)
	if r.ctx.Err() != nil {
		// The sweep was cut short; the partial top-k is not the contract's
		// bit-identical answer, so it is discarded.
		s.finishDeadline(r)
		return
	}
	res := &Result{
		Alg:           r.alg,
		ServedBy:      served,
		Degraded:      degraded,
		SnapshotSeq:   snap.Seq,
		SnapshotEdges: snap.Edges,
		SnapshotTime:  snap.Time,
		Pairs:         make([]PairScore, len(pairs)),
	}
	if sharded {
		res.SnapshotNodes = snap.Graph.NumNodes()
		res.ShardRange = &[2]int{srange.Lo, srange.Hi}
		if obs.Enabled() {
			obs.GetCounter("serve/shard_predicts").Inc()
		}
	}
	ext := s.ids.Externals()
	for i, p := range pairs {
		res.Pairs[i] = PairScore{U: ext[p.U], V: ext[p.V], Score: p.Score}
		if sharded {
			res.Pairs[i].DU, res.Pairs[i].DV = p.U, p.V
		}
	}
	if degraded && obs.Enabled() {
		obs.GetCounter("serve/degraded_responses").Inc()
	}
	if s.cfg.Eval != nil && !sharded {
		// Prequential record: the ranked top-k in dense IDs, keyed by the
		// snapshot epoch it was computed on, credited to the algorithm
		// that actually ran. The current trace length fences off edges
		// that arrived before this response existed. Shard-restricted
		// responses are never recorded — a partial list is not a ranked
		// prediction; the router owns the merged list and its accuracy.
		ranked := make([][2]graph.NodeID, len(pairs))
		for i, p := range pairs {
			ranked[i] = [2]graph.NodeID{p.U, p.V}
		}
		s.cfg.Eval.Record(served, snap.Seq, snap.Edges, int(s.traceLen.Load()), ranked)
	}
	s.noteServed(r.alg, served, time.Since(start))
	r.done <- outcome{res: res}
}

// serveScoreGroup answers a coalesced batch of same-algorithm score
// requests with one ScorePairs sweep. The first live member is the batch
// leader; its context bounds the shared sweep.
func (s *Server) serveScoreGroup(grp []*request, snap *Snapshot) {
	start := time.Now()
	live := grp[:0:0]
	for _, r := range grp {
		if r.ctx.Err() != nil {
			s.finishDeadline(r)
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	leader := live[0]
	alg, served, degraded, err := s.route(leader.alg)
	if err != nil {
		for _, r := range live {
			r.done <- outcome{err: err}
		}
		return
	}
	if obs.Enabled() {
		obs.GetHistogram("serve/batch_size").Observe(int64(len(live)))
	}
	// Concatenate the in-range pairs of every member. A pair is scorable
	// when both endpoints exist in the queried snapshot; anything else
	// (unknown external ID, node newer than the snapshot) scores zero
	// rather than indexing out of range in the engine.
	n := graph.NodeID(snap.Graph.NumNodes())
	var flat []predict.Pair
	type span struct{ at []int } // flat index per member pair, -1 = unscorable
	spans := make([]span, len(live))
	for m, r := range live {
		at := make([]int, len(r.dense))
		for i, dp := range r.dense {
			if !dp.ok || dp.u >= n || dp.v >= n {
				at[i] = -1
				continue
			}
			at[i] = len(flat)
			flat = append(flat, predict.Pair{U: dp.u, V: dp.v})
		}
		spans[m] = span{at: at}
	}
	opt := s.cfg.Opt
	opt.Ctx = leader.ctx
	var vals []float64
	if len(flat) > 0 {
		vals = alg.ScorePairs(snap.Graph, flat, opt)
	}
	if leader.ctx.Err() != nil {
		// The shared sweep was cancelled; followers retry, the leader owns
		// the deadline.
		s.finishDeadline(leader)
		for _, r := range live[1:] {
			r.done <- outcome{err: ErrBatchAborted}
		}
		return
	}
	for m, r := range live {
		if r.ctx.Err() != nil {
			s.finishDeadline(r)
			continue
		}
		res := &Result{
			Alg:           r.alg,
			ServedBy:      served,
			Degraded:      degraded,
			SnapshotSeq:   snap.Seq,
			SnapshotEdges: snap.Edges,
			SnapshotTime:  snap.Time,
			Pairs:         make([]PairScore, len(r.ext)),
		}
		for i, p := range r.ext {
			res.Pairs[i] = PairScore{U: p[0], V: p[1]}
			if at := spans[m].at[i]; at >= 0 {
				res.Pairs[i].Score = vals[at]
			}
		}
		if degraded && obs.Enabled() {
			obs.GetCounter("serve/degraded_responses").Inc()
		}
		r.done <- outcome{res: res}
	}
	s.noteServed(leader.alg, served, time.Since(start))
}

// noteServed records one executed sweep: the per-(requested, served)
// routing counter, the served algorithm's decayed latency cost for
// accuracy-per-cost routing, and the degradation controller's
// latency/queue observation.
func (s *Server) noteServed(reqAlg, served string, lat time.Duration) {
	s.noteCost(served, lat)
	if obs.Enabled() {
		obs.GetCounter(`serve/served{alg="` + reqAlg + `",by="` + served + `"}`).Inc()
	}
	s.deg.observe(lat, len(s.queue))
}
