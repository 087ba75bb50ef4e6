package wal

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"linkpred/internal/graph"
)

// putFile installs raw bytes as a fully-synced file in a MemStorage —
// the fuzzer's way of handing recovery arbitrary on-disk states.
func putFile(t testing.TB, st *MemStorage, name string, b []byte) {
	t.Helper()
	f, err := st.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 0 {
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// fuzzFixture builds a small real log (two segments, publishes, a
// checkpoint) and returns the checkpoint bytes and the first two live
// segment images — structurally valid seeds the fuzzer mutates from.
func fuzzFixture(t testing.TB) (ckpt, seg0, seg1 []byte) {
	t.Helper()
	st := NewMemStorage()
	opt := Options{GroupCommit: 8, SegmentRecords: 16}
	l, rec, err := Open(st, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace
	for i := 0; i < 48; i++ {
		extU, extV := int64(i%7)*10+1, int64((i+1)%9)*10+2
		if extU == extV {
			extV += 10
		}
		e, ok := rec.Ledger.Admit(extU, extV, int64(100+i))
		if !ok {
			t.Fatalf("event %d refused", i)
		}
		if err := l.Append(Record{ExtU: extU, ExtV: extV, U: e.U, V: e.V, T: e.Time}); err != nil {
			t.Fatal(err)
		}
		if (i+1)%12 == 0 {
			p := Publish{Seq: int64(i / 12), Edges: uint64(len(tr.Edges)), Time: e.Time}
			if err := l.NotePublish(p); err != nil {
				t.Fatal(err)
			}
			if i+1 == 24 {
				if err := l.WriteCheckpoint(CheckpointData{
					Name: "fuzz", Arrival: tr.Arrival, Edges: tr.Edges,
					Rev: rec.Ledger.Externals(), Pub: p,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt, err = st.Bytes(ckptName)
	if err != nil {
		t.Fatal(err)
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	var segs [][]byte
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			b, err := st.Bytes(n)
			if err != nil {
				t.Fatal(err)
			}
			segs = append(segs, b)
		}
	}
	if len(segs) < 2 {
		t.Fatalf("fixture produced %d segments, need 2", len(segs))
	}
	return ckpt, segs[0], segs[1]
}

// renumberSeg rewrites a segment image's header sequence number (fixing
// the header CRC) so fixture segments can seed the wal-00000000/1 slots.
func renumberSeg(b []byte, seq uint64) []byte {
	if len(b) < headerSize {
		return b
	}
	out := append([]byte(nil), b...)
	putU64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			out[off+i] = byte(v >> (8 * i))
		}
	}
	putU64(8, seq)
	crc := crc32.ChecksumIEEE(out[:56])
	out[56], out[57], out[58], out[59] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	return out
}

// FuzzWALReplay feeds recovery arbitrary checkpoint and segment images.
// Hostile input must either be rejected with an error or recover to an
// internally consistent state (valid trace, aligned ID maps, buildable
// snapshot) — never panic, and never allocate beyond the input's size
// class (every count in the formats is bounds-checked before use).
func FuzzWALReplay(f *testing.F) {
	ckpt, seg0, seg1 := fuzzFixture(f)
	f.Add([]byte{}, seg0, []byte{})
	f.Add([]byte{}, renumberSeg(seg0, 0), renumberSeg(seg1, 1))
	f.Add(ckpt, seg0, seg1)
	f.Add(ckpt, []byte{}, []byte{})
	f.Add([]byte{}, seg0[:headerSize], []byte{})
	f.Add([]byte{}, seg0[:headerSize+7], []byte{})
	f.Add(ckpt[:60], seg0[:30], seg1)

	f.Fuzz(func(t *testing.T, ck, a, b []byte) {
		st := NewMemStorage()
		if len(ck) > 0 {
			putFile(t, st, ckptName, ck)
		}
		putFile(t, st, segName(0), a)
		if len(b) > 0 {
			putFile(t, st, segName(1), b)
		}
		l, rec, err := Open(st, Options{}, nil)
		if err != nil {
			return
		}
		defer l.Close()
		if verr := rec.Trace.Validate(); verr != nil {
			t.Fatalf("recovered trace invalid: %v", verr)
		}
		rev := rec.Ledger.Externals()
		if len(rev) != len(rec.Trace.Arrival) {
			t.Fatalf("rev has %d entries, arrival %d", len(rev), len(rec.Trace.Arrival))
		}
		for d, ext := range rev {
			if got, ok := rec.Ledger.Lookup(ext); !ok || got != graph.NodeID(d) {
				t.Fatalf("remap inconsistent at dense %d", d)
			}
		}
		if rec.LastPub != nil && rec.LastPub.Edges > uint64(len(rec.Trace.Edges)) {
			t.Fatalf("publish beyond recovered trace")
		}
		// The recovered state must be buildable end to end.
		graph.NewIncrementalBuilder(rec.Trace).AtEdge(len(rec.Trace.Edges))
	})
}

// FuzzCheckpointDecode hardens the checkpoint parser: arbitrary bytes must
// error cleanly or decode to a fully validated checkpoint. The checked-in
// corpus holds a version-1 image too (seed_valid_v1), so mutations reach
// the path that skips its snapshot section.
func FuzzCheckpointDecode(f *testing.F) {
	ckpt, _, _ := fuzzFixture(f)
	f.Add(ckpt)
	f.Add(ckpt[:len(ckpt)-1])
	f.Add(ckpt[:ckptHeaderSize])
	f.Add([]byte(ckptMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		// DecodeCheckpoint promises full validation on success.
		tr := &graph.Trace{Name: ck.Name, Arrival: ck.Arrival, Edges: ck.Edges}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("decoded checkpoint trace invalid: %v", verr)
		}
		if len(ck.Rev) != len(ck.Arrival) {
			t.Fatalf("rev/arrival length mismatch")
		}
	})
}

// TestGenerateFuzzCorpus writes the seed corpora under testdata/fuzz when
// WAL_GEN_CORPUS=1 — run manually to refresh the checked-in seeds.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("WAL_GEN_CORPUS") == "" {
		t.Skip("set WAL_GEN_CORPUS=1 to regenerate seed corpora")
	}
	ckpt, seg0, seg1 := fuzzFixture(t)
	writeSeed := func(dir, name string, parts ...[]byte) {
		path := filepath.Join("testdata", "fuzz", dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		out := "go test fuzz v1\n"
		for _, p := range parts {
			out += "[]byte(" + strconv.Quote(string(p)) + ")\n"
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSeed("FuzzWALReplay", "seed_segment", []byte{}, seg0, []byte{})
	writeSeed("FuzzWALReplay", "seed_two_segments", []byte{}, renumberSeg(seg0, 0), renumberSeg(seg1, 1))
	writeSeed("FuzzWALReplay", "seed_full_state", ckpt, seg0, seg1)
	writeSeed("FuzzWALReplay", "seed_torn_tail", []byte{}, seg0[:len(seg0)-9], []byte{})
	writeSeed("FuzzCheckpointDecode", "seed_valid", ckpt)
	v1, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	writeSeed("FuzzCheckpointDecode", "seed_valid_v1", v1)
	writeSeed("FuzzCheckpointDecode", "seed_truncated", ckpt[:len(ckpt)/2])
	writeSeed("FuzzCheckpointDecode", "seed_header", ckpt[:ckptHeaderSize])
}
