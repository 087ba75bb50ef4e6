package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"linkpred/internal/gen"
	"linkpred/internal/graph"
)

// simWriter drives a Log exactly the way the serving layer does: events
// arrive in external ID space, are admitted through the recovered ledger
// (first-seen dense IDs, clamped time), and every accepted edge is logged
// with both ID spaces plus the post-clamp time.
type simWriter struct {
	t   *testing.T
	led *graph.Ledger
	tr  *graph.Trace // led's trace
	log *Log
}

func newSimWriter(t *testing.T, l *Log, rec *Recovered) *simWriter {
	t.Helper()
	return &simWriter{t: t, led: rec.Ledger, tr: rec.Trace, log: l}
}

func (w *simWriter) ingest(extU, extV, tm int64) {
	w.t.Helper()
	e, ok := w.led.Admit(extU, extV, tm)
	if !ok {
		w.t.Fatalf("event (%d, %d) refused", extU, extV)
	}
	if err := w.log.Append(Record{ExtU: extU, ExtV: extV, U: e.U, V: e.V, T: e.Time}); err != nil {
		w.t.Fatalf("wal append: %v", err)
	}
}

// extID scrambles a dense source ID into a sparse external one so the
// remap recovery path is actually exercised.
func extID(v graph.NodeID) int64 { return int64(v)*11 + 1000 }

// testEvents returns a small generated trace's edges as (extU, extV, time)
// events plus the trace itself as the replay reference.
func testEvents(t *testing.T) *graph.Trace {
	t.Helper()
	tr, err := gen.Generate(gen.Facebook(11).Scaled(0.06))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if tr.NumEdges() < 800 {
		t.Fatalf("fixture too small: %d edges", tr.NumEdges())
	}
	return tr
}

// feed ingests edges [from, to) of src into w, publishing every pubEvery
// edges (0 = never).
func feed(t *testing.T, w *simWriter, src *graph.Trace, from, to, pubEvery int) {
	t.Helper()
	for i := from; i < to; i++ {
		e := src.Edges[i]
		w.ingest(extID(e.U), extID(e.V), e.Time)
		if pubEvery > 0 && (i+1)%pubEvery == 0 {
			n := len(w.tr.Edges)
			pub := Publish{Seq: int64(n / pubEvery), Edges: uint64(n), Time: w.tr.Edges[n-1].Time}
			if err := w.log.NotePublish(pub); err != nil {
				t.Fatalf("note publish: %v", err)
			}
		}
	}
	if err := w.log.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func sameTrace(t *testing.T, got, want *graph.Trace, label string) {
	t.Helper()
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: %d edges, want %d", label, len(got.Edges), len(want.Edges))
	}
	for i := range got.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("%s: edge %d = %v, want %v", label, i, got.Edges[i], want.Edges[i])
		}
	}
	if len(got.Arrival) != len(want.Arrival) {
		t.Fatalf("%s: %d arrivals, want %d", label, len(got.Arrival), len(want.Arrival))
	}
	for i := range got.Arrival {
		if got.Arrival[i] != want.Arrival[i] {
			t.Fatalf("%s: arrival %d = %d, want %d", label, i, got.Arrival[i], want.Arrival[i])
		}
	}
}

// samePrefix asserts got is a strict state-prefix of want: its edges and
// arrivals match want's leading entries.
func samePrefix(t *testing.T, got, want *graph.Trace, label string) {
	t.Helper()
	if len(got.Edges) > len(want.Edges) || len(got.Arrival) > len(want.Arrival) {
		t.Fatalf("%s: recovered state larger than reference (%d/%d edges, %d/%d arrivals)",
			label, len(got.Edges), len(want.Edges), len(got.Arrival), len(want.Arrival))
	}
	for i := range got.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("%s: edge %d = %v, want %v", label, i, got.Edges[i], want.Edges[i])
		}
	}
	for i := range got.Arrival {
		if got.Arrival[i] != want.Arrival[i] {
			t.Fatalf("%s: arrival %d = %d, want %d", label, i, got.Arrival[i], want.Arrival[i])
		}
	}
}

func sameGraph(t *testing.T, got, want *graph.Graph, label string) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() || got.Time != want.Time {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	for u := 0; u < got.NumNodes(); u++ {
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

// replayReference rebuilds the expected trace/rev by feeding src's events
// through a fresh in-memory writer with no faults — the ground truth every
// recovery is compared against.
func replayReference(t *testing.T, src *graph.Trace, n int) (*graph.Trace, []int64) {
	t.Helper()
	st := NewMemStorage()
	l, rec, err := Open(st, Options{}, nil)
	if err != nil {
		t.Fatalf("reference open: %v", err)
	}
	w := newSimWriter(t, l, rec)
	feed(t, w, src, 0, n, 0)
	return w.tr, w.led.Externals()
}

func TestRoundTripNoCheckpoint(t *testing.T) {
	src := testEvents(t)
	n := min(500, src.NumEdges())
	st := NewMemStorage()
	opt := Options{GroupCommit: 32, SegmentRecords: 128}

	l, rec, err := Open(st, opt, nil)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	w := newSimWriter(t, l, rec)
	feed(t, w, src, 0, n, 100)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	ref, refRev := w.tr, w.led.Externals()
	l2, rec2, err := Open(st, opt, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	sameTrace(t, rec2.Trace, ref, "recovered trace")
	rev := rec2.Ledger.Externals()
	if len(rev) != len(refRev) {
		t.Fatalf("recovered %d rev entries, want %d", len(rev), len(refRev))
	}
	for i := range refRev {
		if rev[i] != refRev[i] {
			t.Fatalf("rev[%d] = %d, want %d", i, rev[i], refRev[i])
		}
	}
	if rec2.Truncated {
		t.Fatal("clean close reported a truncated tail")
	}
	if rec2.LastPub == nil || rec2.LastPub.Edges != uint64(n/100*100) {
		t.Fatalf("last publish = %+v, want edges %d", rec2.LastPub, n/100*100)
	}
	if rec2.TailRecords != uint64(n) {
		t.Fatalf("tail records = %d, want %d", rec2.TailRecords, n)
	}

	// The recovered log keeps accepting writes and survives another cycle.
	w2 := newSimWriter(t, l2, rec2)
	feed(t, w2, src, n, min(n+137, src.NumEdges()), 0)
	if err := l2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
	_, rec3, err := Open(st, opt, nil)
	if err != nil {
		t.Fatalf("open 3: %v", err)
	}
	sameTrace(t, rec3.Trace, w2.tr, "second-generation recovery")
}

func TestCheckpointRoundTrip(t *testing.T) {
	src := testEvents(t)
	n := min(600, src.NumEdges())
	ckAt := 384
	st := NewMemStorage()
	opt := Options{GroupCommit: 32, SegmentRecords: 128}

	l, rec, err := Open(st, opt, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	w := newSimWriter(t, l, rec)
	feed(t, w, src, 0, ckAt, 0)

	snap := w.tr.SnapshotAtEdge(ckAt)
	pub := Publish{Seq: 7, Edges: uint64(ckAt), Time: snap.Time}
	if err := l.NotePublish(pub); err != nil {
		t.Fatalf("note publish: %v", err)
	}
	data := CheckpointData{
		Name:    w.tr.Name,
		Arrival: w.tr.Arrival,
		Edges:   w.tr.Edges,
		Rev:     w.led.Externals(),
		Pub:     pub,
	}
	if err := l.WriteCheckpoint(data); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// ckAt covers exactly 3 sealed segments of 128; all must be pruned.
	if got := l.Segments(); got != 1 {
		t.Fatalf("segments after prune = %d, want 1", got)
	}
	feed(t, w, src, ckAt, n, 0)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec2, err := Open(st, opt, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	sameTrace(t, rec2.Trace, w.tr, "recovered trace")
	if rec2.CheckpointEdges != uint64(ckAt) {
		t.Fatalf("checkpoint edges = %d, want %d", rec2.CheckpointEdges, ckAt)
	}
	if rec2.TailRecords != uint64(n-ckAt) {
		t.Fatalf("tail records = %d, want %d", rec2.TailRecords, n-ckAt)
	}
	if rec2.LastPub == nil || *rec2.LastPub != pub {
		t.Fatalf("last publish = %+v, want %+v", rec2.LastPub, pub)
	}

	// An incremental builder over the recovered trace emits the snapshot
	// the checkpoint was taken at, then matches offline snapshots of the
	// replayed tail.
	b := graph.NewIncrementalBuilder(rec2.Trace)
	sameGraph(t, b.AtEdge(ckAt), snap, "checkpoint snapshot")
	sameGraph(t, b.AtEdge(n), w.tr.SnapshotAtEdge(n), "builder past checkpoint")
}

func TestCheckpointWithWarmPrefix(t *testing.T) {
	src := testEvents(t)
	warmN := 200
	warm := &graph.Trace{Name: "warm", Arrival: src.Arrival[:0], Edges: nil}
	// Build the warm trace by replaying a prefix (dense IDs, identity map).
	for _, e := range src.Edges[:warmN] {
		if _, err := warm.Append(e.U, e.V, e.Time); err != nil {
			t.Fatalf("warm append: %v", err)
		}
	}
	st := NewMemStorage()
	opt := Options{GroupCommit: 16, SegmentRecords: 64}
	l, rec, err := Open(st, opt, warm)
	if err != nil {
		t.Fatalf("open with warm: %v", err)
	}
	if len(rec.Trace.Edges) != warmN {
		t.Fatalf("fresh open kept %d warm edges, want %d", len(rec.Trace.Edges), warmN)
	}
	// Warm nodes map identity: external ID i ↔ dense i.
	w := newSimWriter(t, l, rec)
	for _, e := range src.Edges[warmN : warmN+150] {
		// Events over warm nodes arrive with identity externals; new nodes
		// use the scrambled space.
		eu, ev := int64(e.U), int64(e.V)
		if int(e.U) >= len(warm.Arrival) {
			eu = extID(e.U)
		}
		if int(e.V) >= len(warm.Arrival) {
			ev = extID(e.V)
		}
		w.ingest(eu, ev, e.Time)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, rec2, err := Open(st, opt, warm)
	if err != nil {
		t.Fatalf("reopen with warm: %v", err)
	}
	sameTrace(t, rec2.Trace, w.tr, "warm-prefix recovery")
}

func TestCreateRefusesExistingLog(t *testing.T) {
	st := NewMemStorage()
	l, err := Create(st, Options{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := l.Append(Record{ExtU: 1, ExtV: 2, U: 0, V: 1, T: 5}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := Create(st, Options{}); err == nil {
		t.Fatal("Create on non-empty storage succeeded")
	}
}

func TestInjectedWriteFailurePoisonsLog(t *testing.T) {
	st := NewMemStorage()
	l, rec, err := Open(st, Options{GroupCommit: 4}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	w := newSimWriter(t, l, rec)
	w.ingest(1, 2, 10)
	if err := l.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	st.FailWritesAfter(0)
	e, _ := w.led.Admit(3, 4, 11)
	if err := l.Append(Record{ExtU: 3, ExtV: 4, U: e.U, V: e.V, T: e.Time}); err != nil {
		t.Fatalf("buffered append should not fail: %v", err)
	}
	if err := l.Commit(); err == nil {
		t.Fatal("commit after injected failure succeeded")
	}
	if err := l.Append(Record{ExtU: 5, ExtV: 6, U: 4, V: 5, T: 12}); err == nil {
		t.Fatal("append on poisoned log succeeded")
	}
}

func TestMemStorageReconstruct(t *testing.T) {
	st := NewMemStorage()
	f, err := st.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("hello"))
	f.Sync()
	f.Write([]byte("world"))
	g, err := st.Create("b")
	if err != nil {
		t.Fatal(err)
	}
	g.Write([]byte("xyz"))

	// Crash after 7 payload bytes, everything written survives: "hello" +
	// torn "wo"; b not yet written.
	at7 := st.Reconstruct(7, false)
	if b, _ := at7.Bytes("a"); !bytes.Equal(b, []byte("hellowo")) {
		t.Fatalf("a at byte 7 = %q", b)
	}
	if _, err := at7.Bytes("b"); err == nil {
		t.Fatal("b should not exist at byte 7")
	}

	// Same crash point, only synced bytes survive.
	at7s := st.Reconstruct(7, true)
	if b, _ := at7s.Bytes("a"); !bytes.Equal(b, []byte("hello")) {
		t.Fatalf("synced a at byte 7 = %q", b)
	}

	// Crash at the very end: everything written.
	full := st.Reconstruct(st.TotalWriteBytes(), false)
	if b, _ := full.Bytes("a"); !bytes.Equal(b, []byte("helloworld")) {
		t.Fatalf("full a = %q", b)
	}
	if b, _ := full.Bytes("b"); !bytes.Equal(b, []byte("xyz")) {
		t.Fatalf("full b = %q", b)
	}

	// Rename ordering: a rename before the crash point applies.
	if err := st.Rename("b", "c"); err != nil {
		t.Fatal(err)
	}
	ren := st.Reconstruct(st.TotalWriteBytes(), false)
	if _, err := ren.Bytes("b"); err == nil {
		t.Fatal("b should have been renamed")
	}
	if b, _ := ren.Bytes("c"); !bytes.Equal(b, []byte("xyz")) {
		t.Fatalf("c = %q", b)
	}
}

func TestDirStorageRoundTrip(t *testing.T) {
	src := testEvents(t)
	n := min(300, src.NumEdges())
	dir := t.TempDir()
	st, err := NewDirStorage(dir)
	if err != nil {
		t.Fatalf("dir storage: %v", err)
	}
	opt := Options{GroupCommit: 32, SegmentRecords: 128}
	l, rec, err := Open(st, opt, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	w := newSimWriter(t, l, rec)
	feed(t, w, src, 0, 256, 0)
	snap := w.tr.SnapshotAtEdge(256)
	pub := Publish{Seq: 1, Edges: 256, Time: snap.Time}
	if err := l.NotePublish(pub); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(CheckpointData{
		Name: w.tr.Name, Arrival: w.tr.Arrival, Edges: w.tr.Edges,
		Rev: w.led.Externals(), Pub: pub,
	}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	feed(t, w, src, 256, n, 0)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec2, err := Open(st, opt, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	sameTrace(t, rec2.Trace, w.tr, "dir-backed recovery")
	sameGraph(t, graph.NewIncrementalBuilder(rec2.Trace).AtEdge(256), snap, "dir-backed checkpoint snapshot")
}

// TestCloseIsNotAFailure: Err reports only the failure that poisons the
// log. A clean Close leaves it nil, though the closed log refuses work; a
// failed commit sets it for good.
func TestCloseIsNotAFailure(t *testing.T) {
	st := NewMemStorage()
	l, _, err := Open(st, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{ExtU: 1, ExtV: 2, U: 0, V: 1, T: 5}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil || l.Err() != nil {
		t.Fatalf("clean close: %v, Err() = %v", err, l.Err())
	}
	if err := l.Append(Record{ExtU: 2, ExtV: 3, U: 1, V: 2, T: 6}); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if l.Err() != nil {
		t.Fatalf("refusing work after Close reads as a failure: %v", l.Err())
	}

	l2, _, err := Open(st, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.FailWritesAfter(0)
	if err := l2.Append(Record{ExtU: 2, ExtV: 3, U: 1, V: 2, T: 6}); err != nil {
		t.Fatal(err)
	}
	cerr := l2.Commit()
	if cerr == nil || l2.Err() == nil || l2.Err().Error() != cerr.Error() {
		t.Fatalf("failed commit: %v, Err() = %v", cerr, l2.Err())
	}
	if err := l2.Close(); err == nil || err.Error() != cerr.Error() {
		t.Fatalf("close of a poisoned log = %v, want the sticky %v", err, cerr)
	}
}

// TestOpenRefusesForeignPrefix: a log binds to the boot prefix it extends.
// 2000 tail records over a 2400-edge prefix of Renren ×0.2, no checkpoint;
// recovering over a prefix of the same node and edge count whose last
// edge differs must be refused, not replayed into a different trace.
func TestOpenRefusesForeignPrefix(t *testing.T) {
	src, err := gen.Generate(gen.Renren(1).Scaled(0.2))
	if err != nil {
		t.Fatal(err)
	}
	const warmN, tailN = 2400, 2000
	if src.NumEdges() < warmN+tailN {
		t.Fatalf("fixture too small: %d edges", src.NumEdges())
	}
	warm := &graph.Trace{Name: "warm"}
	for _, e := range src.Edges[:warmN] {
		if _, err := warm.Append(e.U, e.V, e.Time); err != nil {
			t.Fatal(err)
		}
	}
	st := NewMemStorage()
	opt := Options{}
	l, rec, err := Open(st, opt, warm)
	if err != nil {
		t.Fatal(err)
	}
	w := newSimWriter(t, l, rec)
	for _, e := range src.Edges[warmN : warmN+tailN] {
		w.ingest(int64(e.U), int64(e.V), e.Time)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Same shape, different last edge: another endpoint that had arrived.
	foreign := &graph.Trace{
		Name:    warm.Name,
		Arrival: append([]int64(nil), warm.Arrival...),
		Edges:   append([]graph.Edge(nil), warm.Edges...),
	}
	last := &foreign.Edges[warmN-1]
	for n := graph.NodeID(0); ; n++ {
		if n != last.U && n != last.V && foreign.Arrival[n] <= last.Time {
			last.V = n
			break
		}
	}
	if err := foreign.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, rec, err := Open(st, opt, foreign); !errors.Is(err, ErrCorrupt) {
		got := "no trace"
		if rec != nil {
			got = fmt.Sprint(rec.Trace.Edges[warmN-1])
		}
		t.Fatalf("recovery over a foreign prefix = %v (edge %d reads %s), want ErrCorrupt", err, warmN-1, got)
	}
	_, rec2, err := Open(st, opt, warm)
	if err != nil {
		t.Fatalf("recovery over the boot prefix: %v", err)
	}
	sameTrace(t, rec2.Trace, w.tr, "recovery over the boot prefix")
}
