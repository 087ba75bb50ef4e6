package serve

import (
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
	"linkpred/internal/wal"
)

// warmAlgorithms is what Config.Warm prebuilds for after each publish: the
// latent factorizations (seconds on a cold snapshot) and the log-degree
// table of the weighted local metrics.
var warmAlgorithms = []string{"AA", "BAA", "Katz", "KatzSC", "Rescal"}

// Ingest appends edge events to the live trace, publishing snapshots on
// the configured cadence. Events with negative IDs or equal endpoints are
// rejected individually; the rest are accepted in order. It returns the
// accepted and rejected counts.
//
// On a WAL-backed server the return is the durability ack: every accepted
// event has been appended to the log and group-committed (fsynced) before
// Ingest returns nil. A log failure returns ErrDurability with zero counts
// — none of the batch should be considered durable — and the failure,
// which poisons the log for good, leaves the server read-only for writes.
func (s *Server) Ingest(events []Event) (accepted, rejected int, err error) {
	s.closeMu.RLock()
	closed := s.closed
	s.closeMu.RUnlock()
	if closed {
		return 0, 0, ErrClosed
	}
	if s.wal != nil {
		if err := s.wal.Err(); err != nil {
			return 0, 0, walRefusal(err)
		}
	}
	s.mu.Lock()
	for _, ev := range events {
		e, ok := s.led.Admit(ev.U, ev.V, ev.T)
		if !ok {
			rejected++
			continue
		}
		if s.wal != nil {
			// Log the event exactly as applied (post-clamp time, dense IDs):
			// replay re-admits it and asserts it reproduces this edge.
			werr := s.wal.Append(wal.Record{ExtU: ev.U, ExtV: ev.V, U: e.U, V: e.V, T: e.Time})
			if werr != nil {
				s.mu.Unlock()
				return 0, 0, walFailure(werr)
			}
		}
		accepted++
		s.pending++
		if s.cfg.Eval != nil {
			// The prequential step: this edge, identified by its trace
			// index, is scored against every prediction recorded before it
			// arrived (the engine enforces the epoch boundary).
			s.cfg.Eval.ObserveEdge(e.U, e.V, s.led.Len()-1)
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
	lag := s.led.Len() - s.builder.Applied()
	s.mu.Unlock()
	ingestEvents.Add(int64(accepted))
	if rejected > 0 {
		ingestRejected.Add(int64(rejected))
	}
	ingestLag.Observe(int64(lag))
	return accepted, rejected, nil
}

// Flush publishes a snapshot of everything ingested so far, regardless of
// cadence, and returns it. With nothing new to publish it returns the
// current snapshot unchanged.
func (s *Server) Flush() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.builder.Applied() == s.led.Len() && s.cur.Load() != nil {
		return s.cur.Load()
	}
	snap := s.publishLocked()
	if s.wal != nil && s.wal.Err() == nil {
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
	g := s.builder.AtEdge(s.led.Len())
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
	obs.GetCounter("serve/snapshots_published").Inc()
	if deltaRows > 0 {
		// Rows COW-cloned for this publish: the O(touched) work unit of the
		// delta-CSR path, and the quantity the CI alloc gate tracks.
		obs.GetCounter("serve/publish_delta_rows").Add(deltaRows)
	}
	if prev != nil {
		obs.GetHistogram("serve/publish_batch_edges").Observe(int64(snap.Edges - prev.Edges))
	}
	if s.warmq != nil {
		// Latest wins: a graph the warmer has not started yet is replaced.
		// publishLocked is the only sender and holds s.mu, so after the
		// drain the one slot is free and the send cannot block.
		select {
		case <-s.warmq:
		default:
		}
		s.warmq <- g
	}
	return snap
}

// warmer is the one background warm loop (Config.Warm): it prebuilds the
// newest published snapshot's shared artifacts off the request path, so a
// burst of publishes costs one warm in flight plus one waiting, not one
// goroutine each. On Close it warms a graph still waiting, then exits.
func (s *Server) warmer() {
	defer s.wg.Done()
	for {
		var g *graph.Graph
		select {
		case g = <-s.warmq:
		case <-s.done:
			select {
			case g = <-s.warmq:
			default:
				return
			}
		}
		start := obs.Start()
		predict.Warm(g, warmAlgorithms, s.cfg.Opt)
		obs.GetHistogram("serve/warm_ns").Since(start)
	}
}
