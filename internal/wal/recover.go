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

// Recovered is the state Open rebuilt: the recovered trace (checkpoint
// prefix plus replayed tail, provably a prefix of the pre-crash trace),
// the external↔dense ID maps, and the last publish marker at or before the
// recovered length — a restarted server that lands exactly on a published
// length reuses its snapshot sequence number, keeping responses
// byte-identical across the crash. It holds no snapshot: every snapshot is
// a pure function of a trace prefix, so the caller builds one from Trace
// exactly as a cold boot would.
type Recovered struct {
	Trace *graph.Trace
	// Rev maps dense → external IDs; Remap is its inverse.
	Rev   []int64
	Remap map[int64]graph.NodeID
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
// scan segments ascending from its anchor. Every segment header must
// chain-match the state recovered so far (base = next trace index,
// prevChain = running chain value); every frame must pass its CRC; every
// record must replay through graph.Trace.Append to exactly the edge it
// recorded. A torn frame truncates the log there — tolerated in the final
// segment unconditionally, and in an earlier segment only when its
// successor's header commits the truncated state (otherwise data loss is
// not crash-shaped and recovery refuses with ErrCorrupt). Recovery never
// appends to a recovered segment: the log rotates, so the first post-
// recovery write starts a fresh segment whose header commits the verified
// chain.
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
	var tr *graph.Trace
	var rev []int64
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
	} else {
		tr = &graph.Trace{}
		if warm != nil {
			tr.Name = warm.Name
			tr.Arrival = append([]int64(nil), warm.Arrival...)
			tr.Edges = append([]graph.Edge(nil), warm.Edges...)
		}
		rev = make([]int64, len(tr.Arrival))
		for i := range rev {
			rev[i] = int64(i)
		}
	}
	start := uint64(len(tr.Edges))
	remap := make(map[int64]graph.NodeID, len(rev))
	for d, ext := range rev {
		if prev, dup := remap[ext]; dup {
			return nil, nil, corruptf("checkpoint maps external id %d to dense %d and %d", ext, prev, d)
		}
		remap[ext] = graph.NodeID(d)
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

	r := &replayer{tr: tr, rev: rev, remap: remap, start: start}
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

	rec.Trace = tr
	rec.Rev = r.rev
	rec.Remap = remap
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

// replayer applies scanned frames to the recovering trace: records below
// the recovered prefix are asserted byte-equal to what the trace already
// holds; records at the frontier replay through Trace.Append, whose
// deterministic clamping must reproduce the recorded edge exactly.
type replayer struct {
	tr    *graph.Trace
	rev   []int64
	remap map[int64]graph.NodeID
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

// bind asserts or establishes the external↔dense mapping for one endpoint.
func (r *replayer) bind(ext int64, d graph.NodeID) error {
	if got, ok := r.remap[ext]; ok {
		if got != d {
			return corruptf("record %d maps external id %d to dense %d, previously %d", r.idx, ext, d, got)
		}
		return nil
	}
	if int(d) != len(r.rev) {
		return corruptf("record %d assigns dense id %d out of first-seen order (next is %d)", r.idx, d, len(r.rev))
	}
	r.rev = append(r.rev, ext)
	r.remap[ext] = d
	return nil
}

func (r *replayer) record(rc Record) error {
	defer func() { r.idx++ }()
	if r.idx < r.start {
		// Already covered by the checkpoint (or warm prefix): assert, don't
		// re-apply. The record must match the trace byte for byte and its ID
		// bindings must agree with the recovered map.
		e := r.tr.Edges[r.idx]
		if e.U != rc.U || e.V != rc.V || e.Time != rc.T {
			return corruptf("record %d (%d-%d@%d) contradicts recovered trace edge (%d-%d@%d)",
				r.idx, rc.U, rc.V, rc.T, e.U, e.V, e.Time)
		}
		if got, ok := r.remap[rc.ExtU]; !ok || got != rc.U {
			return corruptf("record %d external id %d does not map to dense %d", r.idx, rc.ExtU, rc.U)
		}
		if got, ok := r.remap[rc.ExtV]; !ok || got != rc.V {
			return corruptf("record %d external id %d does not map to dense %d", r.idx, rc.ExtV, rc.V)
		}
		return nil
	}
	if r.idx != uint64(len(r.tr.Edges)) {
		return corruptf("record %d arrived at trace length %d", r.idx, len(r.tr.Edges))
	}
	// The writer assigned U before V (first-seen order within the event).
	if err := r.bind(rc.ExtU, rc.U); err != nil {
		return err
	}
	if err := r.bind(rc.ExtV, rc.V); err != nil {
		return err
	}
	e, err := r.tr.Append(rc.U, rc.V, rc.T)
	if err != nil {
		return corruptf("record %d replay: %v", r.idx, err)
	}
	if e.U != rc.U || e.V != rc.V || e.Time != rc.T {
		return corruptf("record %d replayed to %d-%d@%d, logged %d-%d@%d",
			r.idx, e.U, e.V, e.Time, rc.U, rc.V, rc.T)
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
