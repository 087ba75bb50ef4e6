package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"linkpred/internal/graph"
)

// propEvent is one randomized ingest event in external ID space.
type propEvent struct {
	extU, extV, tm int64
}

// randomEvents generates a hostile-but-legal event stream: sparse external
// IDs, occasional out-of-order timestamps (exercising Append's clamping —
// the replay-determinism linchpin), and heavy pair reuse.
func randomEvents(rnd *rand.Rand, n int) []propEvent {
	pool := 20 + rnd.Intn(60)
	tm := int64(1_000)
	out := make([]propEvent, n)
	for i := range out {
		u := rnd.Intn(pool)
		v := rnd.Intn(pool - 1)
		if v >= u {
			v++
		}
		tm += rnd.Int63n(7) - 2 // sometimes steps backwards
		out[i] = propEvent{extU: int64(u)*13 + 7, extV: int64(v)*13 + 7, tm: tm}
	}
	return out
}

// propRun drives one randomized lifecycle: ingest with random publish and
// checkpoint cadence under random batching/segmentation parameters.
type propRun struct {
	st     *MemStorage
	opt    Options
	events []propEvent
	ref    *graph.Trace
	refRev []int64
	acks   []ackPoint
}

func buildPropRun(t *testing.T, rnd *rand.Rand, events []propEvent) *propRun {
	t.Helper()
	run := &propRun{
		st: NewMemStorage(),
		opt: Options{
			GroupCommit:    1 + rnd.Intn(32),
			SegmentRecords: 8 + rnd.Intn(88),
		},
		events: events,
	}
	ckEvery := 40 + rnd.Intn(200) // edges between checkpoints
	pubEvery := 8 + rnd.Intn(24)

	l, rec, err := Open(run.st, run.opt, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	w := newSimWriter(t, l, rec)
	pubSeq := int64(0)
	lastCk := 0
	for i, ev := range events {
		w.ingest(ev.extU, ev.extV, ev.tm)
		nn := len(w.tr.Edges)
		if (i+1)%pubEvery == 0 {
			pubSeq++
			p := Publish{Seq: pubSeq, Edges: uint64(nn), Time: w.tr.Edges[nn-1].Time}
			if err := l.NotePublish(p); err != nil {
				t.Fatalf("publish: %v", err)
			}
			if nn-lastCk >= ckEvery {
				if err := l.WriteCheckpoint(CheckpointData{
					Name: w.tr.Name, Arrival: w.tr.Arrival, Edges: w.tr.Edges,
					Rev: w.led.Externals(), Pub: p,
				}); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
				lastCk = nn
				run.acks = append(run.acks, ackPoint{bytes: run.st.TotalWriteBytes(), edges: nn})
			}
		}
		if rnd.Intn(16) == 0 {
			if err := l.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			run.acks = append(run.acks, ackPoint{bytes: run.st.TotalWriteBytes(), edges: nn})
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("final commit: %v", err)
	}
	run.acks = append(run.acks, ackPoint{bytes: run.st.TotalWriteBytes(), edges: len(w.tr.Edges)})
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	run.ref, run.refRev = w.tr, w.led.Externals()
	return run
}

func (r *propRun) ackedFloor(limit int64) int {
	floor := 0
	for _, a := range r.acks {
		if a.bytes <= limit {
			floor = a.edges
		}
	}
	return floor
}

// TestPropertyCrashRecovery: for random traces and random (checkpoint
// interval, batch size, crash point) triples, recovery from checkpoint +
// tail is equivalent to a full from-scratch replay of the same event
// prefix — same trace state, same ID map, and a rebuilt snapshot
// bit-identical to the offline one.
func TestPropertyCrashRecovery(t *testing.T) {
	trials := 24
	crashesPer := 12
	if testing.Short() {
		trials, crashesPer = 6, 6
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(9000 + trial)))
			events := randomEvents(rnd, 150+rnd.Intn(350))
			run := buildPropRun(t, rnd, events)
			total := run.st.TotalWriteBytes()
			for c := 0; c < crashesPer; c++ {
				limit := rnd.Int63n(total + 1)
				synced := rnd.Intn(2) == 0
				label := fmt.Sprintf("crash@%d synced=%v", limit, synced)

				st := run.st.Reconstruct(limit, synced)
				_, rec, err := Open(st, run.opt, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				samePrefix(t, rec.Trace, run.ref, label)
				k := len(rec.Trace.Edges)
				if synced && k < run.ackedFloor(limit) {
					t.Fatalf("%s: recovered %d < acked floor %d", label, k, run.ackedFloor(limit))
				}
				// Rev must be the reference prefix.
				rev := rec.Ledger.Externals()
				if len(rev) > len(run.refRev) {
					t.Fatalf("%s: recovered %d rev entries, reference has %d", label, len(rev), len(run.refRev))
				}
				for i := range rev {
					if rev[i] != run.refRev[i] {
						t.Fatalf("%s: rev[%d] = %d, want %d", label, i, rev[i], run.refRev[i])
					}
				}
				// replay(checkpoint + tail) ≡ full replay, down to the
				// rebuilt snapshot bytes.
				rebuilt := graph.NewIncrementalBuilder(rec.Trace).AtEdge(k)
				sameGraph(t, rebuilt, rec.Trace.SnapshotAtEdge(k), label)
			}
		})
	}
}

// TestPropertyFlippedByteRejected: any single flipped byte in a sealed
// segment breaks either a frame CRC or the hash chain and recovery must
// refuse; a flipped byte in the checkpoint breaks its digest. A flip in
// the open tail segment may legally truncate (indistinguishable from a
// torn write) but must never yield a non-prefix state.
func TestPropertyFlippedByteRejected(t *testing.T) {
	flipsPerFile := 48
	if testing.Short() {
		flipsPerFile = 12
	}
	rnd := rand.New(rand.NewSource(4242))
	events := randomEvents(rnd, 400)
	run := buildPropRun(t, rnd, events)

	names, err := run.st.List()
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	hasCkpt := false
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			segs = append(segs, n)
		}
		if n == ckptName {
			hasCkpt = true
		}
	}
	if len(segs) < 2 || !hasCkpt {
		t.Fatalf("need sealed segments and a checkpoint (segments=%d ckpt=%v)", len(segs), hasCkpt)
	}
	tail := segs[len(segs)-1] // highest seq: the open tail, List is sorted

	flip := func(name string, off int) *MemStorage {
		st := run.st.Clone()
		b, err := st.Bytes(name)
		if err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), b...)
		mut[off] ^= 0x41
		st.files[name] = &memFile{data: mut, synced: len(mut)}
		return st
	}

	check := func(name string, sealed bool) {
		b, err := run.st.Bytes(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < flipsPerFile && len(b) > 0; i++ {
			off := rnd.Intn(len(b))
			st := flip(name, off)
			_, rec, err := Open(st, run.opt, nil)
			if sealed {
				if err == nil {
					t.Fatalf("flip %s@%d: recovery accepted a corrupted sealed file", name, off)
				}
				continue
			}
			// Tail flips: rejection or a clean truncation to a prefix.
			if err != nil {
				continue
			}
			samePrefix(t, rec.Trace, run.ref, fmt.Sprintf("tail flip %s@%d", name, off))
			if len(rec.Trace.Edges) == len(run.ref.Edges) {
				t.Fatalf("tail flip %s@%d: full-length recovery despite corruption", name, off)
			}
		}
	}
	check(ckptName, true)
	for _, s := range segs[:len(segs)-1] {
		check(s, true)
	}
	check(tail, false)
}

// TestPropertyChainDetectsCrossSegmentSplice: replacing a sealed segment
// with a same-length, individually-CRC-valid forgery still fails the hash
// chain — integrity is not just per-frame.
func TestPropertyChainDetectsCrossSegmentSplice(t *testing.T) {
	rnd := rand.New(rand.NewSource(777))
	opt := Options{GroupCommit: 8, SegmentRecords: 32}
	build := func(events []propEvent) *MemStorage {
		st := NewMemStorage()
		l, rec, err := Open(st, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := newSimWriter(t, l, rec)
		for _, ev := range events {
			w.ingest(ev.extU, ev.extV, ev.tm)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Same parameters, different event streams: segment bases line up
	// (rotation is at exact record counts), contents differ, and every
	// spliced segment is individually well-formed — only the chain can
	// tell the logs apart.
	stA := build(randomEvents(rnd, 200))
	stB := build(randomEvents(rnd, 200))
	// 200 records at 32/segment = 6 sealed segments + open tail in each.
	spliced := stA.Clone()
	bb, err := stB.Bytes(segName(2))
	if err != nil {
		t.Fatal(err)
	}
	spliced.files[segName(2)] = &memFile{data: append([]byte(nil), bb...), synced: len(bb)}
	if _, _, err := Open(spliced, opt, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("spliced segment recovery: err = %v, want ErrCorrupt", err)
	}
}
