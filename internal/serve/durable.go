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

// adoptRecovery installs what wal.Open recovered before the boot publish:
// the log itself, its ID maps, the recovery outcome, the checkpoint
// position, and the serving epoch to resume from. New calls it before any
// other goroutine can see s.
func (s *Server) adoptRecovery(wlog *wal.Log, rec *wal.Recovered) {
	// The log's ID maps are authoritative: external IDs recovered from the
	// records themselves (or identity for a warm-start prefix).
	s.ids = NewIDMap(rec.Remap, rec.Rev)
	s.wal = wlog
	s.walRecovered = walRecoveryInfo{
		edges:     len(rec.Trace.Edges),
		tail:      rec.TailRecords,
		truncated: rec.Truncated,
	}
	s.ckptEdges.Store(int64(rec.CheckpointEdges))
	s.walSyncStats()
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

// walFail records the first durability error and trips the sticky failure
// latch. The in-memory trace may now be ahead of the durable log, so no
// further writes are accepted.
func (s *Server) walFail(err error) {
	s.walErrMu.Lock()
	if s.walErrStr == "" {
		s.walErrStr = err.Error()
	}
	s.walErrMu.Unlock()
	s.walFailed.Store(true)
	obs.GetCounter("serve/wal_failures").Inc()
}

func (s *Server) walErr() error {
	s.walErrMu.Lock()
	msg := s.walErrStr
	s.walErrMu.Unlock()
	if msg == "" {
		return ErrDurability
	}
	return fmt.Errorf("%w: %s", ErrDurability, msg)
}

// walSyncStats mirrors the log's counters into atomics so Health and the
// telemetry gauges never take the log's lock (a health probe must not
// block behind an fsync). Callers hold s.mu.
func (s *Server) walSyncStats() {
	s.walAppendedN.Store(s.wal.Appended())
	s.walCommittedN.Store(s.wal.Committed())
	s.walSegmentsN.Store(int64(s.wal.Segments()))
}

// walCommit group-commits everything appended so far; returning nil is the
// durability ack. Callers hold s.mu.
func (s *Server) walCommit() error {
	start := obs.Start()
	if err := s.wal.Commit(); err != nil {
		s.walFail(err)
		return s.walErr()
	}
	s.walSyncStats()
	walCommits.Inc()
	walCommitNS.Since(start)
	return nil
}

// walNotePublish logs a publication marker so recovery can restore the
// serving epoch (snapshot seq) alongside the trace, then kicks a
// checkpoint when the replay horizon has grown past CheckpointEvery.
// Callers hold s.mu (publishLocked).
func (s *Server) walNotePublish(snap *Snapshot) {
	if s.walFailed.Load() {
		return
	}
	p := wal.Publish{Seq: snap.Seq, Edges: uint64(snap.Edges), Time: snap.Time}
	if err := s.wal.NotePublish(p); err != nil {
		s.walFail(err)
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
	data := wal.CheckpointData{
		Name:    s.trace.Name,
		Arrival: s.trace.Arrival,
		Edges:   s.trace.Edges,
		Rev:     s.ids.Externals(),
		Pub:     p,
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.ckptBusy.Store(false)
		start := obs.Start()
		if err := s.wal.WriteCheckpoint(data); err != nil {
			s.walFail(err)
			obs.GetCounter("serve/wal_checkpoint_failures").Inc()
			return
		}
		s.ckptEdges.Store(int64(p.Edges))
		s.walSegmentsN.Store(int64(s.wal.Segments()))
		obs.GetCounter("serve/wal_checkpoints").Inc()
		obs.GetHistogram("serve/wal_checkpoint_ns").Since(start)
	}()
}

// walStatus assembles the health block from mirrored atomics only.
func (s *Server) walStatus() *WALStatus {
	if s.wal == nil {
		return nil
	}
	st := &WALStatus{
		OK:              !s.walFailed.Load(),
		Appended:        s.walAppendedN.Load(),
		Committed:       s.walCommittedN.Load(),
		Segments:        int(s.walSegmentsN.Load()),
		CheckpointEdges: int(s.ckptEdges.Load()),
		CheckpointBusy:  s.ckptBusy.Load(),
		RecoveredEdges:  s.walRecovered.edges,
		RecoveredTail:   s.walRecovered.tail,
		Truncated:       s.walRecovered.truncated,
	}
	if !st.OK {
		s.walErrMu.Lock()
		st.Error = s.walErrStr
		s.walErrMu.Unlock()
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
		return float64(s.walAppendedN.Load())
	})
	obs.SetGaugeFunc("serve/wal_committed", func() float64 {
		return float64(s.walCommittedN.Load())
	})
	obs.SetGaugeFunc("serve/wal_segments", func() float64 {
		return float64(s.walSegmentsN.Load())
	})
	obs.SetGaugeFunc("serve/wal_checkpoint_edges", func() float64 {
		return float64(s.ckptEdges.Load())
	})
	obs.SetGaugeFunc("serve/wal_checkpoint_lag_edges", func() float64 {
		return float64(s.traceLen.Load() - s.ckptEdges.Load())
	})
	obs.SetGaugeFunc("serve/wal_failed", func() float64 {
		if s.walFailed.Load() {
			return 1
		}
		return 0
	})
}
