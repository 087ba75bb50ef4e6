package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"linkpred/internal/graph"
)

// ErrCorrupt marks recovery failures that cannot be explained by a crash:
// a hash-chain break, a CRC-valid frame whose replay contradicts the
// trace, a missing segment. A torn tail is not corruption — it truncates.
var ErrCorrupt = errors.New("corrupt write-ahead log")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("wal: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Recovered is the state Open rebuilt: the ledger of the recovered trace
// (checkpoint prefix plus replayed tail, provably a prefix of the
// pre-crash trace) and its external↔dense ID map, and the last publish
// marker at or before the recovered length — a restarted server that
// lands exactly on a published length reuses its snapshot sequence number,
// keeping responses byte-identical across the crash. It holds no snapshot:
// every snapshot is a pure function of a trace prefix, so the caller
// builds one from Trace exactly as a cold boot would.
type Recovered struct {
	// Ledger continues admission where the log left off; Trace is its
	// trace, to read.
	Ledger *graph.Ledger
	Trace  *graph.Trace
	// CheckpointEdges is the trace length the checkpoint covered (0 if none).
	CheckpointEdges uint64
	// LastPub is the most recent publish marker covered by the recovered
	// trace, or nil if nothing was ever published durably.
	LastPub *Publish
	// TailRecords counts records replayed from segments past the
	// checkpoint; Truncated reports whether a torn tail was discarded.
	TailRecords uint64
	Truncated   bool
	// Segments is the number of live segment files scanned.
	Segments int
}

// Open recovers a log from st and returns it positioned to continue
// appending, plus the recovered state. warm supplies the pre-WAL trace
// prefix (what the server was originally booted with) when no checkpoint
// covers it; pass nil or an empty trace for a server born empty. On fresh
// storage Open degenerates to Create with warm as the initial state.
//
// The recovery protocol: load and verify the checkpoint (if any), then
// scan segments ascending from its anchor (with no checkpoint, from the
// chain seed: the digest of warm, zero when it is empty). Every segment
// header must chain-match the state recovered so far (base = next trace
// index, prevChain = running chain value); every frame must pass its CRC;
// every record must replay through graph.Ledger.Admit to exactly the
// dense IDs and time it recorded. A torn frame truncates the log there —
// tolerated in the final segment unconditionally, and in an earlier
// segment only when its successor's header commits the truncated state
// (otherwise data loss is not crash-shaped and recovery refuses with
// ErrCorrupt). Recovery never appends to a recovered segment: the log
// rotates, so the first post-recovery write starts a fresh segment whose
// header commits the verified chain.
func Open(st Storage, opt Options, warm *graph.Trace) (*Log, *Recovered, error) {
	opt = opt.withDefaults()
	names, err := st.List()
	if err != nil {
		return nil, nil, err
	}

	// A leftover checkpoint.tmp is a checkpoint that crashed before its
	// rename — the previous checkpoint (if any) is still authoritative.
	var ck *Checkpoint
	for _, n := range names {
		switch n {
		case ckptTmpName:
			if err := st.Remove(n); err != nil {
				return nil, nil, err
			}
		case ckptName:
			b, err := st.Bytes(n)
			if err != nil {
				return nil, nil, err
			}
			if ck, err = DecodeCheckpoint(b); err != nil {
				return nil, nil, err
			}
		}
	}

	rec := &Recovered{}
	tr := &graph.Trace{}
	var rev []int64 // nil: a warm prefix's nodes are addressed by identity
	var firstSeq uint64
	var chain [32]byte
	if ck != nil {
		tr = &graph.Trace{Name: ck.Name, Arrival: ck.Arrival, Edges: ck.Edges}
		if tr.Name == "" && warm != nil {
			tr.Name = warm.Name
		}
		rev = ck.Rev
		firstSeq = ck.FirstSeq
		chain = ck.ChainAnchor
		rec.CheckpointEdges = uint64(len(ck.Edges))
		pub := ck.Pub
		rec.LastPub = &pub
	} else if warm != nil {
		tr.Name = warm.Name
		tr.Arrival = append([]int64(nil), warm.Arrival...)
		tr.Edges = append([]graph.Edge(nil), warm.Edges...)
	}
	start := uint64(len(tr.Edges))
	led, err := graph.NewLedger(tr, rev)
	if err != nil {
		return nil, nil, corruptf("checkpoint: %v", err)
	}
	if ck == nil {
		// Segment 0 commits the digest of the prefix it extends: a log
		// recovered over any other prefix fails the chain check below.
		chain = led.Digest()
	}

	// Collect live segments. Anything below the checkpoint anchor is fully
	// covered — a crash between checkpoint rename and prune leaves them
	// behind; finish the prune here.
	var seqs []uint64
	for _, n := range names {
		seq, ok := parseSegName(n)
		if !ok {
			continue
		}
		if seq < firstSeq {
			if err := st.Remove(n); err != nil {
				return nil, nil, err
			}
			continue
		}
		seqs = append(seqs, seq)
	}
	for i, seq := range seqs {
		if want := firstSeq + uint64(i); seq != want {
			return nil, nil, corruptf("segment %d missing (found %d)", want, seq)
		}
	}

	r := &replayer{led: led, start: start}
	idx := start
	var sealed []segMeta
	openSeq := firstSeq
	for i, seq := range seqs {
		last := i == len(seqs)-1
		b, err := st.Bytes(segName(seq))
		if err != nil {
			return nil, nil, err
		}
		meta, ok := parseSegHeader(b, seq)
		if !ok {
			// A torn header means the segment's very first write never
			// completed — nothing in the file can have been acked. Tolerable
			// only at the end of the log.
			if !last {
				return nil, nil, corruptf("segment %d header unreadable mid-log", seq)
			}
			if err := st.Remove(segName(seq)); err != nil {
				return nil, nil, err
			}
			rec.Truncated = rec.Truncated || len(b) > 0
			openSeq = seq
			break
		}
		if i == 0 {
			if meta.base > start {
				return nil, nil, corruptf("segment %d starts at trace index %d past recovered state %d", seq, meta.base, start)
			}
			idx = meta.base
			// Records below the recovered prefix replay as assertions only;
			// tell the replayer where this segment rejoins.
			r.idx = meta.base
		} else if meta.base != idx {
			return nil, nil, corruptf("segment %d starts at trace index %d, want %d", seq, meta.base, idx)
		}
		if meta.prevChain != chain {
			return nil, nil, corruptf("segment %d hash chain mismatch", seq)
		}
		valid, torn, err := walkFrames(b[headerSize:], r.frame)
		if err != nil {
			return nil, nil, err
		}
		idx = r.idx
		if torn {
			rec.Truncated = true
		}
		digest := sha256.Sum256(b[headerSize : headerSize+valid])
		chain = foldChain(chain, digest[:])
		sealed = append(sealed, meta)
		openSeq = seq + 1
		// A torn frame in a non-final segment is only crash-shaped if the
		// successor was created against exactly this truncated state; the
		// next iteration's base and prevChain checks enforce that.
	}

	rec.Ledger, rec.Trace = led, tr
	rec.Segments = len(sealed)
	if r.lastPub != nil {
		rec.LastPub = r.lastPub
	}
	rec.TailRecords = uint64(len(tr.Edges)) - start

	l := newLog(st, opt, openSeq, uint64(len(tr.Edges)), chain, sealed)
	return l, rec, nil
}

// parseSegHeader validates a segment header against its expected sequence
// number, returning ok=false for torn or corrupt headers.
func parseSegHeader(b []byte, seq uint64) (segMeta, bool) {
	if len(b) < headerSize || string(b[:8]) != segMagic {
		return segMeta{}, false
	}
	if crc32.ChecksumIEEE(b[:56]) != binary.LittleEndian.Uint32(b[56:]) {
		return segMeta{}, false
	}
	if binary.LittleEndian.Uint64(b[8:]) != seq {
		return segMeta{}, false
	}
	m := segMeta{seq: seq, base: binary.LittleEndian.Uint64(b[16:])}
	copy(m.prevChain[:], b[24:56])
	return m, true
}

// walkFrames iterates the complete, CRC-valid frames at the start of b,
// invoking fn for each. It returns the byte length of the valid prefix and
// whether trailing bytes past it exist (a torn tail). fn errors abort the
// walk immediately.
func walkFrames(b []byte, fn func(typ byte, body []byte) error) (valid int, torn bool, err error) {
	off := 0
	for off < len(b) {
		rest := b[off:]
		var n int // full frame length including type and CRC
		switch rest[0] {
		case frameEdges:
			if len(rest) < 5 {
				return off, true, nil
			}
			count := int(binary.LittleEndian.Uint32(rest[1:]))
			// count is bounded against the buffer before any use, so a
			// hostile length cannot force allocation beyond the input size.
			if count > (len(rest)-9)/recordSize {
				return off, true, nil
			}
			n = 5 + count*recordSize + 4
		case framePublish:
			n = 1 + pubBodySize + 4
			if len(rest) < n {
				return off, true, nil
			}
		default:
			return off, true, nil
		}
		if len(rest) < n {
			return off, true, nil
		}
		if crc32.ChecksumIEEE(rest[:n-4]) != binary.LittleEndian.Uint32(rest[n-4:]) {
			return off, true, nil
		}
		if err := fn(rest[0], rest[1:n-4]); err != nil {
			return off, false, err
		}
		off += n
	}
	return off, false, nil
}

// replayer applies scanned frames to the recovering ledger: records below
// the recovered prefix are asserted byte-equal to what the trace already
// holds; records at the frontier replay through Ledger.Admit — the rule
// the writer applied — and must reproduce the recorded edge exactly.
type replayer struct {
	led   *graph.Ledger
	start uint64 // trace length recovered before any segment scan
	idx   uint64 // absolute index of the next record

	lastPub *Publish
}

func (r *replayer) frame(typ byte, body []byte) error {
	if typ == framePublish {
		p := Publish{
			Seq:   int64(binary.LittleEndian.Uint64(body[0:])),
			Edges: binary.LittleEndian.Uint64(body[8:]),
			Time:  int64(binary.LittleEndian.Uint64(body[16:])),
		}
		if p.Edges > r.idx {
			return corruptf("publish marker at edge %d precedes its own records (%d logged)", p.Edges, r.idx)
		}
		r.lastPub = &p
		return nil
	}
	count := int(binary.LittleEndian.Uint32(body[0:]))
	for i := 0; i < count; i++ {
		if err := r.record(decodeRecord(body[4+i*recordSize:])); err != nil {
			return err
		}
	}
	return nil
}

func (r *replayer) record(rc Record) error {
	defer func() { r.idx++ }()
	logged := graph.Edge{U: rc.U, V: rc.V, Time: rc.T}
	if r.idx < r.start {
		// Already covered by the checkpoint (or warm prefix): assert, don't
		// re-apply. The record must match the trace byte for byte and its ID
		// bindings must agree with the recovered map.
		if e := r.led.Trace().Edges[r.idx]; e != logged {
			return corruptf("record %d (%d-%d@%d) contradicts recovered trace edge (%d-%d@%d)",
				r.idx, rc.U, rc.V, rc.T, e.U, e.V, e.Time)
		}
		if got, ok := r.led.Lookup(rc.ExtU); !ok || got != rc.U {
			return corruptf("record %d external id %d does not map to dense %d", r.idx, rc.ExtU, rc.U)
		}
		if got, ok := r.led.Lookup(rc.ExtV); !ok || got != rc.V {
			return corruptf("record %d external id %d does not map to dense %d", r.idx, rc.ExtV, rc.V)
		}
		return nil
	}
	if e, ok := r.led.Admit(rc.ExtU, rc.ExtV, rc.T); !ok || e != logged {
		return corruptf("record %d (%d→%d, %d→%d @%d) replayed to %d-%d@%d (admitted %v)",
			r.idx, rc.ExtU, rc.U, rc.ExtV, rc.V, rc.T, e.U, e.V, e.Time, ok)
	}
	return nil
}

// RemoveAll deletes every log artifact in st — segments, checkpoint, and
// temp files. Test and tooling helper.
func RemoveAll(st Storage) error {
	names, err := st.List()
	if err != nil {
		return err
	}
	for _, n := range names {
		if _, ok := parseSegName(n); ok || n == ckptName || n == ckptTmpName {
			if err := st.Remove(n); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}
