package wal

import (
	"errors"
	"fmt"
	"testing"

	"linkpred/internal/graph"
)

// crashScenario drives a full ingest/publish/checkpoint/ingest lifecycle
// against a journaled MemStorage and returns everything the crash matrix
// needs: the storage (with its journal), the reference end state, the
// event stream by index, and the ack floor — for every byte offset, the
// trace length whose durability had been acknowledged to the application
// before that offset was written.
type crashScenario struct {
	st  *MemStorage
	opt Options
	src *graph.Trace // event source: event i = (extID(U), extID(V), Time)
	ref *graph.Trace // uninterrupted end state
	// acks[i] = {bytes, edges}: after acks[i].bytes journal bytes, edges
	// trace edges were acked durable. Sorted by bytes.
	acks []ackPoint
	n    int // events ingested
}

type ackPoint struct {
	bytes int64
	edges int
}

func buildCrashScenario(t *testing.T, src *graph.Trace, n, ckAt int, opt Options) *crashScenario {
	t.Helper()
	sc := &crashScenario{st: NewMemStorage(), opt: opt, src: src, n: n}
	l, rec, err := Open(sc.st, opt, nil)
	if err != nil {
		t.Fatalf("scenario open: %v", err)
	}
	w := newSimWriter(t, l, rec)
	ack := func() {
		sc.acks = append(sc.acks, ackPoint{bytes: sc.st.TotalWriteBytes(), edges: len(w.tr.Edges)})
	}
	pubSeq := int64(0)
	pub := func() Publish {
		pubSeq++
		nn := len(w.tr.Edges)
		p := Publish{Seq: pubSeq, Edges: uint64(nn), Time: w.tr.Edges[nn-1].Time}
		if err := l.NotePublish(p); err != nil {
			t.Fatalf("note publish: %v", err)
		}
		return p
	}
	for i := 0; i < n; i++ {
		e := src.Edges[i]
		w.ingest(extID(e.U), extID(e.V), e.Time)
		if (i+1)%32 == 0 {
			pub()
		}
		if (i+1)%24 == 0 {
			if err := l.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			ack()
		}
		if i+1 == ckAt {
			p := pub()
			if err := l.WriteCheckpoint(CheckpointData{
				Name: w.tr.Name, Arrival: w.tr.Arrival, Edges: w.tr.Edges,
				Rev: w.led.Externals(), Pub: p,
			}); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			ack()
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("final commit: %v", err)
	}
	ack()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	sc.ref = w.tr
	return sc
}

// ackedFloor returns the trace length guaranteed durable before journal
// byte offset limit.
func (sc *crashScenario) ackedFloor(limit int64) int {
	floor := 0
	for _, a := range sc.acks {
		if a.bytes <= limit {
			floor = a.edges
		}
	}
	return floor
}

// verifyRecovery reconstructs the crash state at the given byte limit,
// recovers, and checks the full contract: recovery never errors on a
// crash-shaped state, lands on a state-prefix of the reference at or above
// the ack floor, and the snapshot the serving layer boots from (an
// incremental build of the recovered trace) is identical to an offline
// from-scratch SnapshotAtEdge at the recovered length.
func (sc *crashScenario) verifyRecovery(t *testing.T, limit int64, syncedOnly bool, label string) *Recovered {
	t.Helper()
	st := sc.st.Reconstruct(limit, syncedOnly)
	_, rec, err := Open(st, sc.opt, nil)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	samePrefix(t, rec.Trace, sc.ref, label)
	k := len(rec.Trace.Edges)
	if floor := sc.ackedFloor(limit); syncedOnly && k < floor {
		t.Fatalf("%s: recovered %d edges, but %d were acked durable", label, k, floor)
	}
	rebuilt := graph.NewIncrementalBuilder(rec.Trace).AtEdge(k)
	sameGraph(t, rebuilt, rec.Trace.SnapshotAtEdge(k), label+": rebuilt snapshot")
	if rec.LastPub != nil && rec.LastPub.Edges > uint64(k) {
		t.Fatalf("%s: recovered publish at %d beyond trace length %d", label, rec.LastPub.Edges, k)
	}
	return rec
}

// continueAndReconverge resumes ingest from the recovered state, feeding
// the remaining reference events, and verifies the resumed log round-trips
// to the exact reference end state.
func (sc *crashScenario) continueAndReconverge(t *testing.T, limit int64, syncedOnly bool, label string) {
	t.Helper()
	st := sc.st.Reconstruct(limit, syncedOnly)
	l, rec, err := Open(st, sc.opt, nil)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	w := newSimWriter(t, l, rec)
	for i := len(rec.Trace.Edges); i < sc.n; i++ {
		e := sc.src.Edges[i]
		w.ingest(extID(e.U), extID(e.V), e.Time)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("%s: resumed commit: %v", label, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("%s: resumed close: %v", label, err)
	}
	_, rec2, err := Open(st, sc.opt, nil)
	if err != nil {
		t.Fatalf("%s: re-recovery failed: %v", label, err)
	}
	sameTrace(t, rec2.Trace, sc.ref, label+": reconverged trace")
}

// TestCrashMatrix is the named half of the fault-injection harness: one
// cell per crash class the design calls out, each located by inspecting
// the storage journal so the cell provably hits the intended boundary.
func TestCrashMatrix(t *testing.T) {
	src := testEvents(t)
	opt := Options{GroupCommit: 16, SegmentRecords: 48}
	n := min(160, src.NumEdges())
	sc := buildCrashScenario(t, src, n, 96, opt)
	ops := sc.st.Ops()

	findWrite := func(name string, pred func(op Op, isFirstWrite bool) bool) (Op, bool) {
		first := map[string]bool{}
		for _, op := range ops {
			if op.Kind != OpWrite {
				continue
			}
			isFirst := !first[op.Name]
			first[op.Name] = true
			if (name == "" || op.Name == name) && pred(op, isFirst) {
				return op, true
			}
		}
		return Op{}, false
	}
	isSeg := func(n string) bool { _, ok := parseSegName(n); return ok }

	type cell struct {
		name  string
		limit int64
	}
	var cells []cell
	add := func(name string, limit int64, found bool) {
		if !found {
			t.Fatalf("crash cell %q: no matching journal operation in scenario", name)
		}
		cells = append(cells, cell{name, limit})
	}

	// Crash mid-record: inside the payload of a segment E-frame.
	op, ok := findWrite("", func(op Op, first bool) bool {
		return isSeg(op.Name) && !first && op.Len >= 9+recordSize
	})
	add("mid-record", op.Start+5+recordSize/2, ok)

	// Crash mid-segment-header: halfway through a header write. The first
	// write to any segment file is its 60-byte header.
	op, ok = findWrite("", func(op Op, first bool) bool {
		return isSeg(op.Name) && first && op.Len == headerSize
	})
	add("mid-segment-header", op.Start+headerSize/2, ok)

	// Crash between group-commit batches: exactly at the end of an E-frame
	// write, before the next frame (and before the covering sync).
	op, ok = findWrite("", func(op Op, first bool) bool {
		return isSeg(op.Name) && !first && op.Len >= 9+recordSize
	})
	add("between-batches", op.Start+op.Len, ok)

	// Crash during checkpoint write: inside the checkpoint.tmp body.
	op, ok = findWrite(ckptTmpName, func(op Op, first bool) bool { return !first })
	add("during-checkpoint", op.Start+op.Len/2, ok)

	// Crash during segment rotation: a successor segment's header write is
	// exactly the rotation boundary — crash at its start (file created,
	// zero bytes) and mid-way.
	var headerWrites []Op
	first := map[string]bool{}
	for _, o := range ops {
		if o.Kind != OpWrite {
			continue
		}
		if isSeg(o.Name) && !first[o.Name] && o.Len == headerSize {
			headerWrites = append(headerWrites, o)
		}
		first[o.Name] = true
	}
	if len(headerWrites) < 2 {
		t.Fatalf("scenario produced %d segments, need a rotation", len(headerWrites))
	}
	rot := headerWrites[1] // first rotated-into segment
	add("during-rotation-created", rot.Start, true)
	add("during-rotation-header", rot.Start+headerSize-1, true)

	for _, c := range cells {
		for _, synced := range []bool{false, true} {
			mode := "written"
			if synced {
				mode = "synced-only"
			}
			label := fmt.Sprintf("%s/%s", c.name, mode)
			t.Run(label, func(t *testing.T) {
				sc.verifyRecovery(t, c.limit, synced, label)
				sc.continueAndReconverge(t, c.limit, synced, label)
			})
		}
	}
}

// TestCrashEveryByte is the exhaustive half: a crash at every single byte
// boundary of the scenario's write stream, in both torn-write and
// fsync-loss modes, must recover to a verified prefix. Short mode strides.
func TestCrashEveryByte(t *testing.T) {
	src := testEvents(t)
	opt := Options{GroupCommit: 16, SegmentRecords: 48}
	n := min(160, src.NumEdges())
	sc := buildCrashScenario(t, src, n, 96, opt)
	total := sc.st.TotalWriteBytes()
	stride := int64(1)
	if testing.Short() {
		stride = 17
	}
	resample := int64(251) // prime stride for the (expensive) resume check
	for limit := int64(0); limit <= total; limit += stride {
		for _, synced := range []bool{false, true} {
			label := fmt.Sprintf("byte %d/%d synced=%v", limit, total, synced)
			sc.verifyRecovery(t, limit, synced, label)
			if limit%resample == 0 {
				sc.continueAndReconverge(t, limit, synced, label)
			}
		}
	}
}

// TestRecoveryRejectsNonCrashDamage: deleting a whole mid-log segment is
// not crash-shaped and must refuse with ErrCorrupt rather than silently
// skipping records.
func TestRecoveryRejectsNonCrashDamage(t *testing.T) {
	src := testEvents(t)
	opt := Options{GroupCommit: 16, SegmentRecords: 32}
	sc := buildCrashScenario(t, src, min(128, src.NumEdges()), 64, opt)

	st := sc.st.Clone()
	names, _ := st.List()
	var segs []string
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			segs = append(segs, n)
		}
	}
	if len(segs) < 2 {
		t.Fatalf("need ≥2 live segments, have %d", len(segs))
	}
	if err := st.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(st, opt, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recovery with a missing segment: err = %v, want ErrCorrupt", err)
	}
}
