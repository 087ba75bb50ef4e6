package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/wal"
)

// walReference replays the exact event stream a WAL test ingests through
// the same validation/first-seen remapping the server applies, yielding
// the reference trace and ID maps a recovered server must prefix-match.
type walReference struct {
	tr    *graph.Trace
	rev   []int64
	remap map[int64]graph.NodeID
}

func buildWALReference(t testing.TB, events []Event) *walReference {
	t.Helper()
	ref := &walReference{tr: &graph.Trace{Name: "live"}, remap: make(map[int64]graph.NodeID)}
	dense := func(id int64) graph.NodeID {
		if d, ok := ref.remap[id]; ok {
			return d
		}
		d := graph.NodeID(len(ref.rev))
		ref.remap[id] = d
		ref.rev = append(ref.rev, id)
		return d
	}
	for _, ev := range events {
		if ev.U < 0 || ev.V < 0 || ev.U == ev.V {
			continue
		}
		u, v := dense(ev.U), dense(ev.V)
		if _, err := ref.tr.Append(u, v, ev.T); err != nil {
			t.Fatalf("reference append: %v", err)
		}
	}
	return ref
}

// requireGraphEqual compares adjacency structure exactly.
func requireGraphEqual(t *testing.T, got, want *graph.Graph, label string) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() || got.Time != want.Time {
		t.Fatalf("%s: graph %v, want %v", label, got, want)
	}
	for u := 0; u < want.NumNodes(); u++ {
		a, b := got.Neighbors(graph.NodeID(u)), want.Neighbors(graph.NodeID(u))
		if len(a) != len(b) {
			t.Fatalf("%s: node %d degree %d, want %d", label, u, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: node %d entry %d = %d, want %d", label, u, i, a[i], b[i])
			}
		}
	}
}

// verifyRecoveredServer boots a server from a crash-state storage and
// checks the full recovery contract against the reference stream: the
// recovered trace is a state-prefix, at or past the acked floor, the ID
// maps match, the boot snapshot is bit-identical to an offline
// SnapshotAtEdge recompute, and the server keeps serving.
func verifyRecoveredServer(t *testing.T, st wal.Storage, ref *walReference, ackedFloor int, label string) {
	t.Helper()
	srv, err := New(Config{WAL: st, SnapshotEvery: 64, CheckpointEvery: 128, Workers: 2})
	if err != nil {
		t.Fatalf("%s: recovery boot: %v", label, err)
	}
	defer srv.Close()

	h := srv.Health()
	if h.WAL == nil || !h.WAL.OK {
		t.Fatalf("%s: health WAL block: %+v", label, h.WAL)
	}
	k := h.TraceEdges
	if k < ackedFloor {
		t.Fatalf("%s: recovered %d edges, but %d were acked durable", label, k, ackedFloor)
	}
	if k > len(ref.tr.Edges) {
		t.Fatalf("%s: recovered %d edges, reference has %d", label, k, len(ref.tr.Edges))
	}
	if h.WAL.RecoveredEdges != k {
		t.Fatalf("%s: WAL.RecoveredEdges = %d, want %d", label, h.WAL.RecoveredEdges, k)
	}
	// State-prefix: every recovered edge and external ID matches the
	// reference replay byte for byte.
	srv.mu.Lock()
	tr := srv.led.Trace()
	srv.mu.Unlock()
	for i := 0; i < k; i++ {
		if tr.Edges[i] != ref.tr.Edges[i] {
			t.Fatalf("%s: edge %d = %+v, want %+v", label, i, tr.Edges[i], ref.tr.Edges[i])
		}
	}
	rev := srv.led.Externals()
	for i := range rev {
		if rev[i] != ref.rev[i] {
			t.Fatalf("%s: rev[%d] = %d, want %d", label, i, rev[i], ref.rev[i])
		}
	}
	// The boot snapshot, built from the recovered trace (checkpoint prefix
	// plus replayed tail), must equal the offline from-scratch build at the
	// same length.
	snap := srv.Snapshot()
	if snap.Edges != k {
		t.Fatalf("%s: boot snapshot at %d edges, trace has %d", label, snap.Edges, k)
	}
	requireGraphEqual(t, snap.Graph, ref.tr.SnapshotAtEdge(k), label+": boot snapshot")
	// And the server must still serve from it.
	if k > 0 {
		res, err := srv.Predict(context.Background(), "CN", 10)
		if err != nil {
			t.Fatalf("%s: predict after recovery: %v", label, err)
		}
		if res.SnapshotEdges != k {
			t.Fatalf("%s: predict answered at %d edges, want %d", label, res.SnapshotEdges, k)
		}
	}
}

// TestWALServeRaceRecovery is the serving-layer crash drill, run under
// -race in CI: concurrent ingest, background checkpoints, and queries on a
// WAL-backed server; crash states captured mid-flight (the moment-in-time
// journal prefix a SIGKILL would leave — no clean shutdown, synced bytes
// only); each recovered into a fresh server and verified against an
// offline recompute of the same event stream.
func TestWALServeRaceRecovery(t *testing.T) {
	src := testTrace(t)
	events := traceEvents(src)
	if len(events) > 1200 {
		events = events[:1200]
	}
	ref := buildWALReference(t, events)

	st := wal.NewMemStorage()
	srv := newTestServer(t, Config{
		WAL:             st,
		WALOptions:      wal.Options{GroupCommit: 32, SegmentRecords: 128},
		CheckpointEvery: 200,
		SnapshotEvery:   64,
		Workers:         3,
		QueueDepth:      128,
	})

	// Seed a prefix so queriers have known IDs, then hammer concurrently.
	const prefix = 100
	if _, _, err := srv.Ingest(events[:prefix]); err != nil {
		t.Fatal(err)
	}
	var ackedEdges atomic.Int64
	ackedEdges.Store(int64(srv.Health().TraceEdges))

	type crashState struct {
		st    *wal.MemStorage
		floor int
	}
	var crashes []crashState
	var crashMu sync.Mutex
	capture := func() {
		// Order matters: read the acked floor BEFORE snapshotting the
		// journal, so every Ingest counted in floor has its commit bytes in
		// the captured prefix. syncedOnly models a crash that loses the OS
		// page cache: only fsynced bytes survive.
		floor := int(ackedEdges.Load())
		crashMu.Lock()
		crashes = append(crashes, crashState{st: st.Reconstruct(st.TotalWriteBytes(), true), floor: floor})
		crashMu.Unlock()
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // ingester: sequential batches, acked floor after each
		defer wg.Done()
		defer close(done)
		for i := prefix; i < len(events); i += 48 {
			end := min(i+48, len(events))
			if _, _, err := srv.Ingest(events[i:end]); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			ackedEdges.Store(int64(srv.Health().TraceEdges))
			if (i/48)%6 == 0 {
				capture() // crash snapshots while checkpoints race appends
			}
		}
	}()
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func(q int) { // queriers: predict, score, health, flush
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch i % 4 {
				case 0:
					if _, err := srv.Predict(ctx, "CN", 8); err != nil && !errors.Is(err, ErrOverloaded) {
						t.Errorf("querier %d predict: %v", q, err)
						return
					}
				case 1:
					pairs := [][2]int64{{events[0].U, events[1].V}, {events[2].U, events[3].V}}
					if _, err := srv.Score(ctx, "AA", pairs); err != nil && !errors.Is(err, ErrOverloaded) {
						t.Errorf("querier %d score: %v", q, err)
						return
					}
				case 2:
					if h := srv.Health(); h.WAL == nil || !h.WAL.OK {
						t.Errorf("querier %d: WAL health %+v", q, h.WAL)
						return
					}
				case 3:
					srv.Flush()
				}
			}
		}(q)
	}
	wg.Wait()
	capture() // the end-of-stream crash state
	srv.Close()

	if h := srv.Health(); h.WAL.Appended != h.WAL.Committed {
		t.Fatalf("acked-but-unflushed window at close: %+v", h.WAL)
	}
	for i, c := range crashes {
		verifyRecoveredServer(t, c.st, ref, c.floor, fmt.Sprintf("crash %d (floor %d)", i, c.floor))
	}
	// The final capture must have lost nothing: every event was acked.
	last := crashes[len(crashes)-1]
	if last.floor != len(ref.tr.Edges) {
		t.Fatalf("final floor %d, reference %d", last.floor, len(ref.tr.Edges))
	}
}

// TestWALServeSeqRestore: recovery restores the serving epoch. A restart
// with no new edges republishes the last logged (seq, edges) pair
// bit-identically; a restart that recovered past the last publish advances
// the epoch so one seq never names two edge counts.
func TestWALServeSeqRestore(t *testing.T) {
	src := testTrace(t)
	events := traceEvents(src)[:300]

	st := wal.NewMemStorage()
	cfg := Config{WAL: st, SnapshotEvery: 64, Workers: 1}
	srv := newTestServer(t, Config{WAL: st, SnapshotEvery: 64, Workers: 1})
	if _, _, err := srv.Ingest(events); err != nil {
		t.Fatal(err)
	}
	snap := srv.Flush()
	srv.Close()

	// Clean restart: same epoch, same snapshot.
	srv2 := newTestServer(t, cfg)
	snap2 := srv2.Snapshot()
	if snap2.Seq != snap.Seq || snap2.Edges != snap.Edges {
		t.Fatalf("clean restart republished (seq %d, edges %d), want (%d, %d)",
			snap2.Seq, snap2.Edges, snap.Seq, snap.Edges)
	}
	srv2.Close()

	// Crash past the last publish: edges beyond snap.Edges were acked but
	// never published. The boot snapshot must take a NEW epoch.
	srv3 := newTestServer(t, Config{WAL: st, SnapshotEvery: 1 << 30, Workers: 1})
	extra := []Event{{U: 900001, V: 900002, T: events[len(events)-1].T + 1}}
	if _, _, err := srv3.Ingest(extra); err != nil {
		t.Fatal(err)
	}
	srv3.Close() // publish never happened for the extra edge
	srv4 := newTestServer(t, cfg)
	defer srv4.Close()
	snap4 := srv4.Snapshot()
	if snap4.Edges != snap.Edges+1 {
		t.Fatalf("restart recovered %d edges, want %d", snap4.Edges, snap.Edges+1)
	}
	if snap4.Seq <= snap.Seq {
		t.Fatalf("boot seq %d does not advance past %d despite new edges", snap4.Seq, snap.Seq)
	}
}

// TestWALServeDurabilityFailure: an injected storage failure latches the
// server read-only for writes — Ingest returns ErrDurability (HTTP 500),
// the health block reports the error — while queries keep serving, and the
// intact log prefix still recovers.
func TestWALServeDurabilityFailure(t *testing.T) {
	src := testTrace(t)
	events := traceEvents(src)[:400]
	ref := buildWALReference(t, events)

	st := wal.NewMemStorage()
	srv := newTestServer(t, Config{
		WAL:           st,
		WALOptions:    wal.Options{GroupCommit: 16, SegmentRecords: 64},
		SnapshotEvery: 128,
		Workers:       1,
	})
	if _, _, err := srv.Ingest(events[:200]); err != nil {
		t.Fatal(err)
	}
	acked := srv.Health().TraceEdges

	st.FailWritesAfter(100) // arm: fail every write after 100 more bytes
	var ingErr error
	for i := 200; i < len(events); i += 16 {
		if _, _, ingErr = srv.Ingest(events[i:min(i+16, len(events))]); ingErr != nil {
			break
		}
	}
	if !errors.Is(ingErr, ErrDurability) {
		t.Fatalf("ingest after write failure: %v, want ErrDurability", ingErr)
	}
	// Sticky: immediate rejection from now on.
	if _, _, err := srv.Ingest(events[:1]); !errors.Is(err, ErrDurability) {
		t.Fatalf("latch not sticky: %v", err)
	}
	h := srv.Health()
	if h.WAL.OK || h.WAL.Error == "" {
		t.Fatalf("health after failure: %+v", h.WAL)
	}
	// Queries still serve from the last snapshot.
	if _, err := srv.Predict(context.Background(), "CN", 5); err != nil {
		t.Fatalf("predict after durability failure: %v", err)
	}
	srv.Close()

	// The synced prefix recovers to at least everything acked pre-failure.
	verifyRecoveredServer(t, st.Reconstruct(st.TotalWriteBytes(), true), ref, acked, "post-failure recovery")
}

// blockingStorage is a MemStorage whose segment Syncs, once armed, park
// until release is closed; entered reports each parked Sync.
type blockingStorage struct {
	*wal.MemStorage
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

type blockingFile struct {
	wal.File
	st *blockingStorage
}

func (s *blockingStorage) Create(name string) (wal.File, error) {
	f, err := s.MemStorage.Create(name)
	if err != nil || !strings.HasSuffix(name, ".seg") {
		return f, err
	}
	return &blockingFile{File: f, st: s}, nil
}

func (f *blockingFile) Sync() error {
	if f.st.armed.Load() {
		f.st.entered <- struct{}{}
		<-f.st.release
	}
	return f.File.Sync()
}

// TestWALServeHealthDuringBlockedSync: /healthz and the serve/wal_*
// gauges answer while an ingest batch's group commit is parked inside
// fsync, holding both the ingest lock and the log's lock. A router
// polling for alignment must never wait behind the replication it is
// waiting on.
func TestWALServeHealthDuringBlockedSync(t *testing.T) {
	st := &blockingStorage{
		MemStorage: wal.NewMemStorage(),
		entered:    make(chan struct{}, 1),
		release:    make(chan struct{}),
	}
	srv := newTestServer(t, Config{WAL: st, SnapshotEvery: 1 << 20, Workers: 1})
	events := traceEvents(testTrace(t))[:64]
	if _, _, err := srv.Ingest(events[:32]); err != nil {
		t.Fatal(err)
	}
	st.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, _, err := srv.Ingest(events[32:])
		done <- err
	}()
	select {
	case <-st.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the ingest commit never reached Sync")
	}

	answered := make(chan Health, 1)
	go func() { answered <- srv.Health() }()
	select {
	case h := <-answered:
		if h.WAL == nil || !h.WAL.OK || h.WAL.Committed < 32 || h.TraceEdges != 64 {
			t.Fatalf("health during a blocked fsync: edges=%d wal=%+v", h.TraceEdges, h.WAL)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Health blocked behind the commit's fsync")
	}
	gauges := make(chan map[string]float64, 1)
	go func() { gauges <- obs.Snapshot().Gauges }()
	select {
	case g := <-gauges:
		for _, name := range []string{"serve/wal_appended", "serve/wal_committed", "serve/wal_segments", "serve/wal_failed"} {
			if _, ok := g[name]; !ok {
				t.Errorf("gauge %s missing while the commit is blocked", name)
			}
		}
		if g["serve/wal_failed"] != 0 {
			t.Errorf("serve/wal_failed = %v during a healthy blocked commit", g["serve/wal_failed"])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the serve/wal_* gauges blocked behind the commit's fsync")
	}

	st.armed.Store(false)
	close(st.release)
	if err := <-done; err != nil {
		t.Fatalf("ingest after the fsync returned: %v", err)
	}
	if h := srv.Health(); h.WAL.Appended != 64 || h.WAL.Committed != 64 {
		t.Fatalf("after the commit: %+v", h.WAL)
	}
}

// TestWALServeCleanCloseIsHealthy: closing a healthy WAL-backed server
// does not read as a durability failure.
func TestWALServeCleanCloseIsHealthy(t *testing.T) {
	srv := newTestServer(t, Config{WAL: wal.NewMemStorage(), Workers: 1})
	if _, _, err := srv.Ingest(traceEvents(testTrace(t))[:40]); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if h := srv.Health(); h.WAL == nil || !h.WAL.OK || h.WAL.Error != "" {
		t.Fatalf("health after a clean Close: %+v", h.WAL)
	}
}
