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
//     ServedBy naming the proxy from one static table (Katz→AA, KatzSC→RA,
//     Rescal→CN). Recovery re-enables the latent path after a run of
//     healthy observations (TestDegradationProperty).
//   - With Config.Eval set, the accuracy loop is closed: every /predict
//     response is recorded into the prequential engine and every accepted
//     ingest edge is scored against the predictions that existed before it
//     arrived, producing live per-algorithm hit@k / MRR / precision /
//     windowed-AUPR series in /metrics. The statistics are a deterministic
//     function of the request sequence — bit-identical at any engine
//     worker count (TestLiveEvalEndToEnd).
package serve

import (
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
// densely in first-seen order (graph.Ledger).
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
	// Warm prebuilds published snapshots' shared artifacts (degree order,
	// latent factors) for warmAlgorithms off the request path, on one
	// background warmer: a publish replaces a snapshot it has not started,
	// so a burst of publishes warms the newest, not each one.
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
	// actually served it, and every accepted ingest edge is scored against
	// the predictions that existed before it arrived.
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
	// CheckpointEvery writes a checkpoint (the trace prefix) after the
	// replay horizon (trace edges past the last checkpoint) grows by N
	// edges, bounding recovery time and enabling segment pruning (default
	// 4096; negative disables). Checkpoints serialize in the background, off the ingest
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
	// outcome, and the log's sticky failure.
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

// Server is the live prediction service. Create with New, serve HTTP via
// Handler, and stop with Close.
type Server struct {
	cfg   Config
	queue chan *request
	done  chan struct{}
	wg    sync.WaitGroup

	closeMu sync.RWMutex
	closed  bool

	// mu serializes the ingest path: admission into the ledger and
	// snapshot publication. Queries read the ledger's ID map and length
	// while ingest extends them.
	mu      sync.Mutex
	led     *graph.Ledger
	builder *graph.IncrementalBuilder
	seq     int64
	pending int

	cur  atomic.Pointer[Snapshot]
	deg  *degrader
	memo memo

	// lastPublishNS is the wall time of the latest snapshot publication
	// (snapshot-age gauge).
	lastPublishNS atomic.Int64
	// lastDeltaRows is the builder's DeltaRows at the previous publication;
	// the per-publish difference feeds the publish_delta_rows counter.
	// Guarded by mu (only publishLocked touches it).
	lastDeltaRows int64

	// warmq is the warmer's one-slot mailbox (nil without Config.Warm):
	// the newest published graph not yet warmed.
	warmq chan *graph.Graph

	// wal is the write-ahead log (nil without Config.WAL); it owns its
	// positions and its sticky failure, and reads them without its lock.
	// walRecovered pins the boot-time recovery outcome.
	wal          *wal.Log
	walRecovered walRecoveryInfo
	ckptEdges    atomic.Int64
	ckptBusy     atomic.Bool
}

// New starts a server: applies defaults, recovers or warm-starts the trace,
// publishes the initial snapshot (an empty graph without either), and
// launches the worker pool, plus the warmer with Config.Warm. There is one
// boot path: whether the trace came from Config.Trace or from WAL recovery
// (checkpoint prefix plus replayed tail), one incremental builder over it
// builds the first snapshot.
func New(cfg Config) (*Server, error) {
	cfg = withDefaults(cfg)
	if cfg.Trace != nil {
		if err := cfg.Trace.Validate(); err != nil {
			return nil, fmt.Errorf("serve: warm-start trace: %w", err)
		}
	}
	var wlog *wal.Log
	var rec *wal.Recovered
	var led *graph.Ledger
	if cfg.WAL != nil {
		var err error
		wlog, rec, err = wal.Open(cfg.WAL, cfg.WALOptions, cfg.Trace)
		if err != nil {
			return nil, fmt.Errorf("serve: wal recovery: %w", err)
		}
		led = rec.Ledger
	} else {
		tr := cfg.Trace
		if tr == nil {
			tr = &graph.Trace{Name: "live"}
		}
		// Warm-start IDs are the trace's own dense IDs; identity never collides.
		led, _ = graph.NewLedger(tr, nil)
	}
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *request, cfg.QueueDepth),
		done:    make(chan struct{}),
		led:     led,
		builder: graph.NewIncrementalBuilder(led.Trace()),
		seq:     -1, // the initial publication is seq 0
		deg:     newDegrader(cfg.Degrade, cfg.QueueDepth),
		wal:     wlog,
	}
	if cfg.Warm {
		s.warmq = make(chan *graph.Graph, 1)
	}
	if rec != nil {
		s.adoptRecovery(rec)
	}
	s.mu.Lock()
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
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if s.warmq != nil {
		s.wg.Add(1)
		go s.warmer()
	}
	return s, nil
}

// withDefaults fills in every zero Config field that has a default.
func withDefaults(cfg Config) Config {
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
	if cfg.WAL != nil && cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 4096
	}
	return cfg
}

// The shard's per-request and per-ingest handles, resolved once; each
// records only while telemetry is on. Once-per-event metrics (publish,
// warm, checkpoint, degrade transition, WAL failure) look their name up
// where they record.
var (
	overloadRejected  = obs.GetCounter("serve/overload_rejected")
	deadlineExceeded  = obs.GetCounter("serve/deadline_exceeded")
	queueDepth        = obs.GetHistogram("serve/queue_depth")
	batchSize         = obs.GetHistogram("serve/batch_size")
	shardPredicts     = obs.GetCounter("serve/shard_predicts")
	memoHits          = obs.GetCounter("serve/predict_memo_hits")
	degradedResponses = obs.GetCounter("serve/degraded_responses")
	ingestEvents      = obs.GetCounter("serve/ingest_events")
	ingestRejected    = obs.GetCounter("serve/ingest_rejected")
	ingestLag         = obs.GetHistogram("serve/ingest_lag_events")
	walCommits        = obs.GetCounter("serve/wal_commits")
	walCommitNS       = obs.GetHistogram("serve/wal_commit_ns")
)

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
		return float64(s.led.Len() - s.cur.Load().Edges)
	})
	obs.SetGaugeFunc("serve/trace_edges", func() float64 {
		return float64(s.led.Len())
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
// answered with ErrClosed by the draining workers, and new calls are
// rejected. Idempotent.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	close(s.done)
	s.closeMu.Unlock()
	s.wg.Wait() // workers, the warmer, and any in-flight background checkpoint
	if s.wal != nil {
		s.mu.Lock()
		failed := s.wal.Err() != nil
		if err := s.wal.Close(); err != nil && !failed {
			walFailure(err)
		}
		s.mu.Unlock()
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
		TraceEdges:    s.led.Len(),
		Nodes:         snap.Graph.NumNodes(),
		Degraded:      s.deg.degraded(),
		QueueDepth:    len(s.queue),
		SnapshotBytes: snap.Graph.ResidentBytes(),
		WAL:           s.walStatus(),
	}
}
