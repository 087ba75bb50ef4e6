package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"linkpred/internal/predict"
)

// TestServeRaceIntegration exercises the full concurrent serving path —
// parallel ingest, snapshot publication, and queries — and then proves no
// response was computed against a torn or unpublished snapshot: every
// response names a snapshot seq the OnPublish hook observed *before* the
// pointer swap, and recomputing the query offline on that recorded
// snapshot reproduces the served payload bit for bit. Run under -race in
// CI (see the GOMAXPROCS matrix).
func TestServeRaceIntegration(t *testing.T) {
	tr := testTrace(t)
	events := traceEvents(tr)
	if len(events) < 600 {
		t.Fatalf("fixture too small: %d events", len(events))
	}

	var pubMu sync.Mutex
	published := make(map[int64]*Snapshot)
	s := newTestServer(t, Config{
		SnapshotEvery: 64,
		Workers:       4,
		QueueDepth:    256,
		MaxBatch:      8,
		Opt:           func() predict.Options { o := predict.DefaultOptions(); o.Workers = 2; return o }(),
		OnPublish: func(sn *Snapshot) {
			pubMu.Lock()
			published[sn.Seq] = sn
			pubMu.Unlock()
		},
	})

	// Ingest a prefix synchronously so queriers have known external IDs.
	const prefix = 200
	if _, _, err := s.Ingest(events[:prefix]); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	var ids []int64
	seen := make(map[int64]bool)
	for _, ev := range events[:prefix] {
		for _, id := range []int64{ev.U, ev.V} {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}

	type record struct {
		kind reqKind
		alg  string
		ext  [][2]int64
		res  *Result
	}

	var wg sync.WaitGroup
	rest := events[prefix:]

	// Two ingesters interleave chunks of the remaining stream while a
	// flusher forces extra publications between cadence points.
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for c := part * 8; c < len(rest); c += 16 {
				hi := c + 8
				if hi > len(rest) {
					hi = len(rest)
				}
				if _, _, err := s.Ingest(rest[c:hi]); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				runtime.Gosched()
			}
		}(part)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.Flush()
			runtime.Gosched()
		}
	}()

	// Four queriers mix top-k and coalesced pair-score requests, recording
	// every successful response for offline verification.
	records := make([][]record, 4)
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for iter := 0; iter < 30; iter++ {
				switch (q + iter) % 3 {
				case 0, 1:
					alg := "CN"
					if (q+iter)%3 == 1 {
						alg = "AA"
					}
					res, err := s.Predict(context.Background(), alg, 10)
					if errors.Is(err, ErrOverloaded) {
						continue
					}
					if err != nil {
						t.Errorf("querier %d: predict %s: %v", q, alg, err)
						return
					}
					records[q] = append(records[q], record{kind: kindPredict, alg: alg, res: res})
				case 2:
					ext := make([][2]int64, 0, 6)
					for j := 0; j < 6; j++ {
						u := ids[(q*31+iter*7+j)%len(ids)]
						v := ids[(q*17+iter*13+j*5)%len(ids)]
						ext = append(ext, [2]int64{u, v})
					}
					res, err := s.Score(context.Background(), "RA", ext)
					if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrBatchAborted) {
						continue
					}
					if err != nil {
						t.Errorf("querier %d: score: %v", q, err)
						return
					}
					records[q] = append(records[q], record{kind: kindScore, alg: "RA", ext: ext, res: res})
				}
			}
		}(q)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	final := s.Flush()
	if final.Edges != len(events) {
		t.Fatalf("final snapshot folded %d edges, want %d", final.Edges, len(events))
	}

	// Offline verification: every recorded response must be reproducible
	// bit for bit from the published snapshot it claims.
	opt := s.cfg.Opt
	verified := 0
	for q, recs := range records {
		for i, rec := range recs {
			pubMu.Lock()
			snap := published[rec.res.SnapshotSeq]
			pubMu.Unlock()
			if snap == nil {
				t.Fatalf("querier %d record %d: response names unpublished snapshot seq %d", q, i, rec.res.SnapshotSeq)
			}
			if rec.res.SnapshotEdges != snap.Edges || rec.res.SnapshotTime != snap.Time {
				t.Fatalf("querier %d record %d: snapshot fields (%d,%d) disagree with publication (%d,%d)",
					q, i, rec.res.SnapshotEdges, rec.res.SnapshotTime, snap.Edges, snap.Time)
			}
			alg := mustAlg(t, rec.alg)
			switch rec.kind {
			case kindPredict:
				want := alg.Predict(snap.Graph, 10, opt)
				if len(rec.res.Pairs) != len(want) {
					t.Fatalf("querier %d record %d (%s@%d): %d pairs, offline %d",
						q, i, rec.alg, rec.res.SnapshotSeq, len(rec.res.Pairs), len(want))
				}
				for j, w := range want {
					got := rec.res.Pairs[j]
					if got.U != s.ids.Externals()[w.U] || got.V != s.ids.Externals()[w.V] || got.Score != w.Score {
						t.Fatalf("querier %d record %d (%s@%d): rank %d served %+v, offline %+v",
							q, i, rec.alg, rec.res.SnapshotSeq, j, got, w)
					}
				}
			case kindScore:
				n := snap.Graph.NumNodes()
				for j, p := range rec.ext {
					u, uok := s.ids.Lookup(p[0])
					v, vok := s.ids.Lookup(p[1])
					var want float64
					if uok && vok && int(u) < n && int(v) < n {
						want = alg.ScorePairs(snap.Graph, []predict.Pair{{U: u, V: v}}, opt)[0]
					}
					if rec.res.Pairs[j].Score != want {
						t.Fatalf("querier %d record %d (%s@%d): pair %v served %v, offline %v",
							q, i, rec.alg, rec.res.SnapshotSeq, p, rec.res.Pairs[j].Score, want)
					}
				}
			}
			verified++
		}
	}
	if verified == 0 {
		t.Fatal("no responses were verified")
	}
	t.Logf("verified %d responses against %d published snapshots", verified, len(published))
}
