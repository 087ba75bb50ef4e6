package serve

import (
	"errors"
	"fmt"

	"linkpred/internal/obs"
	"linkpred/internal/wal"
)

// ErrDurability rejects ingest after a write-ahead log failure: the server
// can no longer honor "acked means durable", so it stops accepting writes
// (HTTP 500) while continuing to serve queries from the last snapshot.
// The condition is sticky — recovery is a process restart against the
// (intact prefix of the) log.
var ErrDurability = errors.New("serve: write-ahead log failure; ingest disabled")

// WALStatus is the durability block of the /healthz payload, present only
// on WAL-backed servers. A router or operator reads Appended == Committed
// as "no acked-but-unflushed window" (always true between Ingest calls —
// every Ingest group-commits before returning) and CheckpointEdges as the
// replay horizon: a crash now replays TraceEdges − CheckpointEdges records.
type WALStatus struct {
	OK        bool   `json:"ok"`
	Appended  uint64 `json:"appended"`
	Committed uint64 `json:"committed"`
	Segments  int    `json:"segments"`
	// CheckpointEdges is the trace length covered by the newest durable
	// checkpoint; CheckpointBusy reports an in-flight background write.
	CheckpointEdges int  `json:"checkpoint_edges"`
	CheckpointBusy  bool `json:"checkpoint_busy"`
	// RecoveredEdges/RecoveredTail describe the boot-time recovery: total
	// trace length restored and how many of those records were replayed
	// from WAL segments (the rest came from the checkpoint). Truncated
	// reports that a torn tail was discarded — expected after a crash.
	RecoveredEdges int    `json:"recovered_edges"`
	RecoveredTail  uint64 `json:"recovered_tail"`
	Truncated      bool   `json:"truncated,omitempty"`
	Error          string `json:"error,omitempty"`
}

// walRecoveryInfo pins the boot-time recovery outcome (static after New).
type walRecoveryInfo struct {
	edges     int
	tail      uint64
	truncated bool
}

// adoptRecovery installs what wal.Open recovered, beyond its ledger, before
// the boot publish: the recovery outcome, the checkpoint position, and the
// serving epoch to resume from. New calls it before any other goroutine
// can see s.
func (s *Server) adoptRecovery(rec *wal.Recovered) {
	s.walRecovered = walRecoveryInfo{
		edges:     len(rec.Trace.Edges),
		tail:      rec.TailRecords,
		truncated: rec.Truncated,
	}
	s.ckptEdges.Store(int64(rec.CheckpointEdges))
	if rec.LastPub != nil {
		// Restore the serving epoch: republishing exactly the last logged
		// publication keeps its seq (the boot snapshot is bit-identical to
		// the pre-crash one); recovering past it — edges acked after the
		// last publish — advances the epoch so routers never see one seq
		// with two different edge counts.
		if rec.LastPub.Edges == uint64(len(rec.Trace.Edges)) {
			s.seq = rec.LastPub.Seq - 1
		} else {
			s.seq = rec.LastPub.Seq
		}
	}
}

// walFailure counts a durability failure the server just hit and returns
// the refusal ingest answers with. The log keeps the failure itself: its
// first error poisons it for good (wal.Log.Err), so the in-memory trace,
// possibly ahead of the durable log, accepts no further writes.
func walFailure(err error) error {
	obs.GetCounter("serve/wal_failures").Inc()
	return walRefusal(err)
}

func walRefusal(err error) error { return fmt.Errorf("%w: %v", ErrDurability, err) }

// walCommit group-commits everything appended so far; returning nil is the
// durability ack. Callers hold s.mu.
func (s *Server) walCommit() error {
	start := obs.Start()
	if err := s.wal.Commit(); err != nil {
		return walFailure(err)
	}
	walCommits.Inc()
	walCommitNS.Since(start)
	return nil
}

// walNotePublish logs a publication marker so recovery can restore the
// serving epoch (snapshot seq) alongside the trace, then kicks a
// checkpoint when the replay horizon has grown past CheckpointEvery.
// Callers hold s.mu (publishLocked).
func (s *Server) walNotePublish(snap *Snapshot) {
	if s.wal.Err() != nil {
		return
	}
	p := wal.Publish{Seq: snap.Seq, Edges: uint64(snap.Edges), Time: snap.Time}
	if err := s.wal.NotePublish(p); err != nil {
		walFailure(err)
		return
	}
	s.maybeCheckpointLocked(snap, p)
}

// maybeCheckpointLocked starts a background checkpoint covering snap when
// due. The state capture is synchronous — at the publish instant the trace
// length equals snap.Edges exactly, and Arrival, Edges and the ID table are
// append-only, so the captured slice headers are an immutable as-of-publish
// view — but serialization (copying those arrays out, hashing, fsync) runs
// off the ingest path on a background goroutine; the WAL's own lock orders it
// against concurrent appends. One checkpoint in flight at a time; a missed
// cadence retries at the next publish. Callers hold s.mu.
func (s *Server) maybeCheckpointLocked(snap *Snapshot, p wal.Publish) {
	every := s.cfg.CheckpointEvery
	if every <= 0 {
		return
	}
	if int64(snap.Edges)-s.ckptEdges.Load() < int64(every) {
		return
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	tr := s.led.Trace()
	data := wal.CheckpointData{
		Name:    tr.Name,
		Arrival: tr.Arrival,
		Edges:   tr.Edges,
		Rev:     s.led.Externals(),
		Pub:     p,
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.ckptBusy.Store(false)
		start := obs.Start()
		if err := s.wal.WriteCheckpoint(data); err != nil {
			walFailure(err)
			obs.GetCounter("serve/wal_checkpoint_failures").Inc()
			return
		}
		s.ckptEdges.Store(int64(p.Edges))
		obs.GetCounter("serve/wal_checkpoints").Inc()
		obs.GetHistogram("serve/wal_checkpoint_ns").Since(start)
	}()
}

// walStatus assembles the health block from reads that take no lock: the
// log's own positions and failure, and the server's checkpoint state.
func (s *Server) walStatus() *WALStatus {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Err()
	st := &WALStatus{
		OK:              err == nil,
		Appended:        s.wal.Appended(),
		Committed:       s.wal.Committed(),
		Segments:        s.wal.Segments(),
		CheckpointEdges: int(s.ckptEdges.Load()),
		CheckpointBusy:  s.ckptBusy.Load(),
		RecoveredEdges:  s.walRecovered.edges,
		RecoveredTail:   s.walRecovered.tail,
		Truncated:       s.walRecovered.truncated,
	}
	if err != nil {
		st.Error = err.Error()
	}
	return st
}

// registerWALGauges adds the durability gauges and counts the boot-time
// recovery (WAL-backed servers only).
func (s *Server) registerWALGauges() {
	obs.GetCounter("serve/wal_recovered_edges").Add(int64(s.walRecovered.edges))
	obs.GetCounter("serve/wal_recovered_tail").Add(int64(s.walRecovered.tail))
	if s.walRecovered.truncated {
		obs.GetCounter("serve/wal_recovered_truncations").Inc()
	}
	obs.SetGaugeFunc("serve/wal_appended", func() float64 {
		return float64(s.wal.Appended())
	})
	obs.SetGaugeFunc("serve/wal_committed", func() float64 {
		return float64(s.wal.Committed())
	})
	obs.SetGaugeFunc("serve/wal_segments", func() float64 {
		return float64(s.wal.Segments())
	})
	obs.SetGaugeFunc("serve/wal_checkpoint_edges", func() float64 {
		return float64(s.ckptEdges.Load())
	})
	obs.SetGaugeFunc("serve/wal_checkpoint_lag_edges", func() float64 {
		return float64(int64(s.led.Len()) - s.ckptEdges.Load())
	})
	obs.SetGaugeFunc("serve/wal_failed", func() float64 {
		if s.wal.Err() != nil {
			return 1
		}
		return 0
	})
}
