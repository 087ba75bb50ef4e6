package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"

	"linkpred/internal/graph"
)

// Checkpoint file layout (checkpoint.ckpt, little-endian):
//
//	"LPCKPT01" | edges u64 | nodes u64 | traceTime i64 | firstSeq u64 |
//	chainAnchor [32]B | pubSeq i64 | pubEdges u64 | pubTime i64 |
//	nameLen u32 | name | pad to 8 |
//	rev    nodes × i64
//	arrival nodes × i64
//	edges  edges × (u i32 | v i32 | t i64)
//	sha256 digest of everything above
//
// The snapshot is not stored: it is a pure function of the trace prefix,
// and recovery rebuilds it exactly as a cold boot does. Every section after
// the name starts 8-aligned, so a little-endian host can alias the
// rev/arrival/edge sections straight out of a memory-mapped buffer with no
// copy. The file is written to checkpoint.tmp and renamed into place, so a
// crash mid-write never clobbers the previous checkpoint.
//
// Version 1 ("LPCKPT01") had the same layout plus a CSR dump of the
// snapshot before the digest: n u64 | edges u64 | time i64, n+1 row
// offsets × i64, then offset[n] neighbour entries × i32. The decoder still
// reads it, skipping that section, so a log pruned behind a v1 checkpoint
// recovers. Nothing writes it, and the read path is kept for one release:
// the next format change (ROADMAP item 3) drops it.
const (
	ckptMagic      = "LPCKPT02"
	ckptMagicV1    = "LPCKPT01"
	ckptName       = "checkpoint.ckpt"
	ckptTmpName    = "checkpoint.tmp"
	ckptHeaderSize = 8 + 8 + 8 + 8 + 8 + 32 + 8 + 8 + 8 + 4
)

// CheckpointData is the state one checkpoint persists, captured atomically
// at a publish: the trace prefix the published snapshot covers and the
// dense→external ID map. Arrival, Edges, and Rev must be the exact
// prefixes as of the publish (serve captures the slice headers under its
// ingest lock; the arrays are append-only, so the capture stays valid
// while the checkpoint serializes in the background).
type CheckpointData struct {
	Name    string
	Arrival []int64
	Edges   []graph.Edge
	Rev     []int64
	Pub     Publish
}

// Checkpoint is a decoded checkpoint: the trace prefix, ID map, publish
// state, and the log position replay resumes from.
type Checkpoint struct {
	Name        string
	Arrival     []int64
	Edges       []graph.Edge
	Rev         []int64
	TraceTime   int64
	FirstSeq    uint64
	ChainAnchor [32]byte
	Pub         Publish
}

// WriteCheckpoint persists d atomically and prunes segments it fully
// covers. It first commits anything pending (the checkpoint must not
// cover records the log hasn't made durable), anchors replay at the
// earliest segment extending past the checkpoint, serializes without
// holding the log lock, and renames into place. A storage failure on the
// way poisons the log, as a failed commit does.
func (l *Log) WriteCheckpoint(d CheckpointData) error {
	if len(d.Arrival) != len(d.Rev) {
		return fmt.Errorf("wal: checkpoint arrival/rev length mismatch (%d vs %d)", len(d.Arrival), len(d.Rev))
	}
	E := uint64(len(d.Edges))

	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if err := l.commitLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if c := l.committed.Load(); E > c {
		l.mu.Unlock()
		return fmt.Errorf("wal: checkpoint at edge %d beyond committed log (%d)", E, c)
	}
	firstSeq, anchor := l.coverLocked(E)
	l.mu.Unlock()

	f, err := l.st.Create(ckptTmpName)
	if err != nil {
		return l.fail(fmt.Errorf("wal: checkpoint create: %w", err))
	}
	if err := encodeCheckpoint(f, d, firstSeq, anchor); err != nil {
		f.Close()
		return l.fail(fmt.Errorf("wal: checkpoint write: %w", err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return l.fail(fmt.Errorf("wal: checkpoint sync: %w", err))
	}
	if err := f.Close(); err != nil {
		return l.fail(fmt.Errorf("wal: checkpoint close: %w", err))
	}
	if err := l.st.Rename(ckptTmpName, ckptName); err != nil {
		return l.fail(fmt.Errorf("wal: checkpoint publish: %w", err))
	}

	// Prune sealed segments the checkpoint fully covers. Each entry is
	// dropped from the index before its file is removed: a failed Remove
	// leaves a stale file recovery cleans up, never an index entry pointing
	// at a missing file.
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.segs) > 0 && l.segs[0].seq < firstSeq {
		seq := l.segs[0].seq
		l.segs = l.segs[1:]
		l.nsegs.Store(int64(len(l.segs)))
		if err := l.st.Remove(segName(seq)); err != nil {
			return l.fail(fmt.Errorf("wal: prune segment %d: %w", seq, err))
		}
	}
	return nil
}

// coverLocked returns the earliest live segment whose records extend past
// trace index E — where replay from a checkpoint at E resumes — and the
// chain value its header commits (the verification anchor once earlier
// segments are pruned). With every segment ending at or before E it
// returns the open segment.
func (l *Log) coverLocked(E uint64) (uint64, [32]byte) {
	for i, s := range l.segs {
		end := l.committed.Load()
		if i+1 < len(l.segs) {
			end = l.segs[i+1].base
		}
		if end > E {
			return s.seq, s.prevChain
		}
	}
	last := l.segs[len(l.segs)-1]
	return last.seq, last.prevChain
}

// hashedWriter tees everything through a sha256 so the trailing digest
// covers exactly the bytes written.
type hashedWriter struct {
	w io.Writer
	h io.Writer
}

func (hw *hashedWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	if n > 0 {
		hw.h.Write(p[:n])
	}
	return n, err
}

func encodeCheckpoint(f io.Writer, d CheckpointData, firstSeq uint64, anchor [32]byte) error {
	h := sha256.New()
	hw := &hashedWriter{w: f, h: h}

	hdr := make([]byte, ckptHeaderSize, ckptHeaderSize+len(d.Name)+8)
	copy(hdr[:8], ckptMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(d.Edges)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(d.Arrival)))
	var traceTime int64
	if n := len(d.Edges); n > 0 {
		traceTime = d.Edges[n-1].Time
	}
	binary.LittleEndian.PutUint64(hdr[24:], uint64(traceTime))
	binary.LittleEndian.PutUint64(hdr[32:], firstSeq)
	copy(hdr[40:72], anchor[:])
	binary.LittleEndian.PutUint64(hdr[72:], uint64(d.Pub.Seq))
	binary.LittleEndian.PutUint64(hdr[80:], d.Pub.Edges)
	binary.LittleEndian.PutUint64(hdr[88:], uint64(d.Pub.Time))
	binary.LittleEndian.PutUint32(hdr[96:], uint32(len(d.Name)))
	hdr = append(hdr, d.Name...)
	for len(hdr)%8 != 0 {
		hdr = append(hdr, 0)
	}
	if _, err := hw.Write(hdr); err != nil {
		return err
	}

	cw := &chunkWriter{w: hw, buf: make([]byte, 0, encodeChunk)}
	for _, x := range d.Rev {
		cw.u64(uint64(x))
	}
	cw.flush()
	for _, x := range d.Arrival {
		cw.u64(uint64(x))
	}
	cw.flush()
	for _, e := range d.Edges {
		cw.u32(uint32(e.U))
		cw.u32(uint32(e.V))
		cw.u64(uint64(e.Time))
	}
	cw.flush()
	if cw.err != nil {
		return cw.err
	}

	_, err := f.Write(h.Sum(nil))
	return err
}

// encodeChunk is the buffer size the bulk sections stream through —
// bounded memory, and enough distinct writes that the in-memory crash
// model can place a crash inside a checkpoint body.
const encodeChunk = 1 << 16

// chunkWriter batches little-endian words into encodeChunk-sized writes.
// Every section ends with flush, so each starts on a write boundary; the
// first error sticks and later calls are no-ops.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (c *chunkWriter) u64(x uint64) {
	c.buf = binary.LittleEndian.AppendUint64(c.buf, x)
	if len(c.buf) == encodeChunk {
		c.flush()
	}
}

func (c *chunkWriter) u32(x uint32) {
	c.buf = binary.LittleEndian.AppendUint32(c.buf, x)
	if len(c.buf) == encodeChunk {
		c.flush()
	}
}

func (c *chunkWriter) flush() {
	if len(c.buf) > 0 && c.err == nil {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// hostLittleEndian reports whether the checkpoint's on-disk byte order
// matches the host's, enabling zero-copy section aliasing.
var hostLittleEndian = func() bool {
	var probe [2]byte
	binary.NativeEndian.PutUint16(probe[:], 0x0102)
	return probe[0] == 0x02
}()

// alias reinterprets an 8-aligned little-endian byte section as a []T
// without copying. The result has cap == len, so any append reallocates
// instead of writing through to the (possibly memory-mapped, read-only)
// backing buffer.
func alias[T any](b []byte, n int) ([]T, bool) {
	var zero T
	sz := int(unsafe.Sizeof(zero))
	if !hostLittleEndian || n == 0 || uintptr(unsafe.Pointer(&b[0]))%8 != 0 || len(b) < n*sz {
		return nil, false
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:n:n], true
}

type cursor struct {
	b   []byte
	off int
}

func (c *cursor) take(n int) ([]byte, error) {
	if n < 0 || len(c.b)-c.off < n {
		return nil, fmt.Errorf("wal: checkpoint truncated at offset %d (need %d bytes, have %d)", c.off, n, len(c.b)-c.off)
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s, nil
}

func (c *cursor) int64s(n int) ([]int64, error) {
	raw, err := c.take(n * 8)
	if err != nil {
		return nil, err
	}
	if out, ok := alias[int64](raw, n); ok {
		return out, nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out, nil
}

func (c *cursor) edges(n int) ([]graph.Edge, error) {
	raw, err := c.take(n * 16)
	if err != nil {
		return nil, err
	}
	if out, ok := alias[graph.Edge](raw, n); ok {
		return out, nil
	}
	out := make([]graph.Edge, n)
	for i := range out {
		out[i] = graph.Edge{
			U:    graph.NodeID(binary.LittleEndian.Uint32(raw[i*16:])),
			V:    graph.NodeID(binary.LittleEndian.Uint32(raw[i*16+4:])),
			Time: int64(binary.LittleEndian.Uint64(raw[i*16+8:])),
		}
	}
	return out, nil
}

// DecodeCheckpoint parses and fully validates a checkpoint image: digest,
// structural bounds (every count is checked against the buffer before any
// allocation, so a lying header cannot force a giant up-front alloc) and
// trace invariants. A version-1 image's snapshot section is bounds-checked
// and skipped. On a little-endian host the bulk sections alias b
// zero-copy; callers loading from a memory map must keep the mapping
// alive and treat the result as immutable-backed (appends to the returned
// slices reallocate and are safe).
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < ckptHeaderSize+sha256.Size {
		return nil, fmt.Errorf("wal: checkpoint too short (%d bytes)", len(b))
	}
	magic := string(b[:8])
	if magic != ckptMagic && magic != ckptMagicV1 {
		return nil, fmt.Errorf("wal: not a checkpoint file")
	}
	body, tail := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], tail) {
		return nil, fmt.Errorf("wal: checkpoint digest mismatch")
	}

	ck := &Checkpoint{}
	edgeCount := binary.LittleEndian.Uint64(b[8:])
	nodeCount := binary.LittleEndian.Uint64(b[16:])
	ck.TraceTime = int64(binary.LittleEndian.Uint64(b[24:]))
	ck.FirstSeq = binary.LittleEndian.Uint64(b[32:])
	copy(ck.ChainAnchor[:], b[40:72])
	ck.Pub.Seq = int64(binary.LittleEndian.Uint64(b[72:]))
	ck.Pub.Edges = binary.LittleEndian.Uint64(b[80:])
	ck.Pub.Time = int64(binary.LittleEndian.Uint64(b[88:]))
	nameLen := int(binary.LittleEndian.Uint32(b[96:]))

	c := &cursor{b: body, off: ckptHeaderSize}
	name, err := c.take(nameLen)
	if err != nil {
		return nil, err
	}
	ck.Name = string(name)
	if pad := (8 - c.off%8) % 8; pad > 0 {
		if _, err := c.take(pad); err != nil {
			return nil, err
		}
	}

	maxN := uint64(len(body)) / 16 // rev + arrival cost 16 B per node
	if nodeCount > maxN {
		return nil, fmt.Errorf("wal: checkpoint node count %d exceeds file capacity", nodeCount)
	}
	if edgeCount > uint64(len(body))/16 {
		return nil, fmt.Errorf("wal: checkpoint edge count %d exceeds file capacity", edgeCount)
	}
	if ck.Rev, err = c.int64s(int(nodeCount)); err != nil {
		return nil, err
	}
	if ck.Arrival, err = c.int64s(int(nodeCount)); err != nil {
		return nil, err
	}
	if ck.Edges, err = c.edges(int(edgeCount)); err != nil {
		return nil, err
	}
	if magic == ckptMagicV1 {
		if err := c.skipSnapshotV1(); err != nil {
			return nil, err
		}
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("wal: checkpoint has %d trailing bytes", len(body)-c.off)
	}

	// Semantic validation: the embedded trace prefix must satisfy every
	// invariant the snapshot builders rely on.
	tr := &graph.Trace{Name: ck.Name, Arrival: ck.Arrival, Edges: ck.Edges}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("wal: checkpoint trace: %w", err)
	}
	if ck.Pub.Edges > edgeCount {
		return nil, fmt.Errorf("wal: checkpoint publish at edge %d beyond its own trace prefix (%d)", ck.Pub.Edges, edgeCount)
	}
	return ck, nil
}

// skipSnapshotV1 steps over a version-1 checkpoint's CSR section,
// checking only that it fits the file; nothing in it is used.
func (c *cursor) skipSnapshotV1() error {
	hdr, err := c.take(24)
	if err != nil {
		return err
	}
	n := binary.LittleEndian.Uint64(hdr)
	if n >= uint64(len(c.b))/8 {
		return fmt.Errorf("wal: checkpoint v1 snapshot of %d nodes exceeds file capacity", n)
	}
	offs, err := c.take(int(n+1) * 8)
	if err != nil {
		return err
	}
	entries := binary.LittleEndian.Uint64(offs[n*8:])
	if entries > uint64(len(c.b))/4 {
		return fmt.Errorf("wal: checkpoint v1 snapshot of %d entries exceeds file capacity", entries)
	}
	_, err = c.take(int(entries) * 4)
	return err
}
