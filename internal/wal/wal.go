// Package wal is the durability layer for the live server: an append-only
// segmented binary edge log with group-commit batching, periodic checkpoints
// (the trace prefix and ID map as flat arrays, mmap-able for zero-copy
// load), and replay-from-checkpoint crash recovery. Segment headers are hash-chained —
// each commits the SHA-256 chain value of its predecessor, and every frame
// carries a CRC — so a restarted server can prove it rebuilt the exact
// pre-crash trace prefix. Storage goes through a five-operation interface
// with filesystem and in-memory backends; the in-memory backend journals
// every byte so tests can reconstruct the state a crash at any write
// boundary would leave behind.
//
// On-disk layout (all integers little-endian):
//
//	segment file wal-%08d.seg:
//	  header (60 B): "LPWALSG1" | seq u64 | base u64 | prevChain [32]B | crc32
//	  frames:
//	    'E' | count u32 | count × record (32 B)            | crc32
//	    'P' | pubSeq i64 | edges u64 | time i64            | crc32
//	  record (32 B): extU i64 | extV i64 | u i32 | v i32 | t i64
//
// base is the absolute trace index of the segment's first record; frame
// CRCs cover the type byte and body. The chain value after segment k is
// SHA256(chain_{k-1} || SHA256(k's frame bytes)); a segment's header
// commits the chain value of everything before it. The genesis is the
// digest of the boot prefix the log extends (graph.Ledger.Digest), zero
// for an empty prefix, so segment 0 binds the log to that prefix.
package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"linkpred/internal/graph"
)

const (
	segMagic   = "LPWALSG1"
	headerSize = 8 + 8 + 8 + 32 + 4
	recordSize = 32

	frameEdges   = 'E'
	framePublish = 'P'

	pubBodySize = 8 + 8 + 8
)

// Record is one durable edge event: the external endpoint IDs as submitted,
// the dense IDs the server assigned, and the post-clamp timestamp
// graph.Trace.Append recorded. Replay re-runs Append (whose clamping is
// idempotent) and asserts it reproduces (U, V, T) exactly; the external IDs
// rebuild the ID remap.
type Record struct {
	ExtU, ExtV int64
	U, V       graph.NodeID
	T          int64
}

func (r Record) encode(b []byte) {
	binary.LittleEndian.PutUint64(b[0:], uint64(r.ExtU))
	binary.LittleEndian.PutUint64(b[8:], uint64(r.ExtV))
	binary.LittleEndian.PutUint32(b[16:], uint32(r.U))
	binary.LittleEndian.PutUint32(b[20:], uint32(r.V))
	binary.LittleEndian.PutUint64(b[24:], uint64(r.T))
}

func decodeRecord(b []byte) Record {
	return Record{
		ExtU: int64(binary.LittleEndian.Uint64(b[0:])),
		ExtV: int64(binary.LittleEndian.Uint64(b[8:])),
		U:    graph.NodeID(binary.LittleEndian.Uint32(b[16:])),
		V:    graph.NodeID(binary.LittleEndian.Uint32(b[20:])),
		T:    int64(binary.LittleEndian.Uint64(b[24:])),
	}
}

// Publish marks a snapshot publish in the log: after `Edges` trace edges,
// snapshot sequence Seq was published at trace time Time. Recovery reports
// the last publish at or before the recovered length so a restarted server
// can reuse the same snapshot sequence number — byte-identical responses
// across the crash.
type Publish struct {
	Seq   int64
	Edges uint64
	Time  int64
}

// Options configures batching and segmentation. Zero values take defaults.
type Options struct {
	// GroupCommit bounds the record batch one commit flushes as a single
	// frame + fsync; Append auto-commits when the buffer reaches it.
	// Default 256.
	GroupCommit int
	// SegmentRecords is the record capacity of one segment file; commits
	// rotate (seal, fsync, fold the chain) at the boundary. Default 4096.
	SegmentRecords int
}

func (o Options) withDefaults() Options {
	if o.GroupCommit <= 0 {
		o.GroupCommit = 256
	}
	if o.SegmentRecords <= 0 {
		o.SegmentRecords = 4096
	}
	return o
}

// segMeta is the in-memory index entry for one live segment.
type segMeta struct {
	seq       uint64
	base      uint64 // absolute trace index of the first record
	prevChain [32]byte
}

// frame is one queued unit of pending work: a sealed record batch or a
// publish marker.
type frame struct {
	pub  Publish
	recs []Record // nil for publish frames
}

// Log is the write path. All methods are safe for concurrent use; Commit
// returns only after everything previously appended is fsynced, so an acked
// commit survives any crash.
type Log struct {
	st  Storage
	opt Options

	// The positions and the sticky failure are atomics, so Appended,
	// Committed, Segments and Err answer without l.mu — a health probe
	// never waits behind an fsync. They change where the log's state does.
	appended  atomic.Uint64         // records accepted (written + buffered)
	committed atomic.Uint64         // records written to storage (synced by Commit)
	nsegs     atomic.Int64          // len(segs)
	err       atomic.Pointer[error] // sticky: the first storage failure poisons the log

	mu       sync.Mutex
	closed   bool
	segs     []segMeta // live segments, ascending seq; last is the open one
	f        File      // open segment file; nil until its first frame
	segCount int       // records written into the open segment
	digest   hash.Hash // sha256 over the open segment's frame bytes
	pending  []frame   // sealed batches + publish markers awaiting Commit
	batch    []Record  // open record batch
}

var errClosed = errors.New("wal: log closed")

// newLog wires a Log around already-recovered state: the open segment
// (created lazily on first write) has sequence seq, starts at trace index
// base, and commits prevChain in its header.
func newLog(st Storage, opt Options, seq, base uint64, prevChain [32]byte, sealed []segMeta) *Log {
	l := &Log{
		st:     st,
		opt:    opt.withDefaults(),
		segs:   append(sealed, segMeta{seq: seq, base: base, prevChain: prevChain}),
		digest: sha256.New(),
	}
	l.committed.Store(base)
	l.appended.Store(base)
	l.nsegs.Store(int64(len(l.segs)))
	return l
}

// Create initializes a fresh log on empty storage. Use Open to recover an
// existing one.
func Create(st Storage, opt Options) (*Log, error) {
	names, err := st.List()
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			return nil, fmt.Errorf("wal: Create on non-empty storage (found %s); use Open", n)
		}
	}
	return newLog(st, opt, 0, 0, [32]byte{}, nil), nil
}

// Append buffers one record, auto-committing when the group-commit batch
// fills. The record's absolute trace index is the current Appended count.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	l.batch = append(l.batch, r)
	l.appended.Add(1)
	if len(l.batch) >= l.opt.GroupCommit {
		return l.commitLocked()
	}
	return nil
}

// NotePublish queues a publish marker after everything appended so far. It
// does not itself commit; the marker becomes durable with the next Commit.
func (l *Log) NotePublish(p Publish) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	l.sealBatchLocked()
	l.pending = append(l.pending, frame{pub: p})
	return nil
}

// Commit writes every buffered record and publish marker and fsyncs. When
// it returns nil, everything previously appended is crash-durable.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	return l.commitLocked()
}

// Close flushes and closes the open segment. The log is unusable after; a
// clean Close is not a failure (Err stays nil).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.usableLocked()
	if err == nil {
		err = l.commitLocked()
	}
	l.closed = true
	if l.f != nil {
		cerr := l.f.Close()
		l.f = nil
		if err == nil && cerr != nil {
			err = l.fail(fmt.Errorf("wal: close: %w", cerr))
		}
	}
	return err
}

// Err returns the first storage failure, which poisons the log for good,
// or nil.
func (l *Log) Err() error {
	if p := l.err.Load(); p != nil {
		return *p
	}
	return nil
}

// fail poisons the log with err unless it failed already, and returns the
// sticky failure.
func (l *Log) fail(err error) error {
	l.err.CompareAndSwap(nil, &err)
	return l.Err()
}

// usableLocked reports why the log refuses work: its failure, or Close.
func (l *Log) usableLocked() error {
	if err := l.Err(); err != nil {
		return err
	}
	if l.closed {
		return errClosed
	}
	return nil
}

// Appended returns the absolute trace index the next Append will get.
func (l *Log) Appended() uint64 { return l.appended.Load() }

// Committed returns the number of records written to storage.
func (l *Log) Committed() uint64 { return l.committed.Load() }

// Segments returns the number of live (unpruned) segments including the
// open one.
func (l *Log) Segments() int { return int(l.nsegs.Load()) }

func (l *Log) sealBatchLocked() {
	if len(l.batch) > 0 {
		l.pending = append(l.pending, frame{recs: l.batch})
		l.batch = nil
	}
}

func (l *Log) commitLocked() error {
	l.sealBatchLocked()
	if len(l.pending) == 0 {
		return nil
	}
	for _, fr := range l.pending {
		var err error
		if fr.recs == nil {
			err = l.writePublishLocked(fr.pub)
		} else {
			err = l.writeRecordsLocked(fr.recs)
		}
		if err != nil {
			return l.fail(fmt.Errorf("wal: commit: %w", err))
		}
	}
	l.pending = nil
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return l.fail(fmt.Errorf("wal: commit sync: %w", err))
		}
	}
	return nil
}

// openSegmentLocked lazily creates the open segment's file and writes its
// header.
func (l *Log) openSegmentLocked() error {
	if l.f != nil {
		return nil
	}
	cur := &l.segs[len(l.segs)-1]
	f, err := l.st.Create(segName(cur.seq))
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], cur.seq)
	binary.LittleEndian.PutUint64(hdr[16:], cur.base)
	copy(hdr[24:56], cur.prevChain[:])
	binary.LittleEndian.PutUint32(hdr[56:], crc32.ChecksumIEEE(hdr[:56]))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	l.f = f
	return nil
}

// rotateLocked seals the open segment — fsync, close, fold its frame digest
// into the chain — and stages the successor (file created lazily).
func (l *Log) rotateLocked() error {
	cur := l.segs[len(l.segs)-1]
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	next := segMeta{
		seq:       cur.seq + 1,
		base:      l.committed.Load(),
		prevChain: foldChain(cur.prevChain, l.digest.Sum(nil)),
	}
	l.segs = append(l.segs, next)
	l.nsegs.Store(int64(len(l.segs)))
	l.digest = sha256.New()
	l.segCount = 0
	return nil
}

// foldChain advances the hash chain: SHA256(prev || segmentDigest).
func foldChain(prev [32]byte, digest []byte) [32]byte {
	h := sha256.New()
	h.Write(prev[:])
	h.Write(digest)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// writeRecordsLocked writes a record batch as one or more 'E' frames,
// rotating at the segment capacity so every sealed segment holds exactly
// SegmentRecords records.
func (l *Log) writeRecordsLocked(recs []Record) error {
	for len(recs) > 0 {
		if l.segCount >= l.opt.SegmentRecords {
			if err := l.rotateLocked(); err != nil {
				return err
			}
		}
		if err := l.openSegmentLocked(); err != nil {
			return err
		}
		n := min(len(recs), l.opt.SegmentRecords-l.segCount)
		buf := make([]byte, 1+4+n*recordSize+4)
		buf[0] = frameEdges
		binary.LittleEndian.PutUint32(buf[1:], uint32(n))
		for i, r := range recs[:n] {
			r.encode(buf[5+i*recordSize:])
		}
		body := buf[:len(buf)-4]
		binary.LittleEndian.PutUint32(buf[len(buf)-4:], crc32.ChecksumIEEE(body))
		if _, err := l.f.Write(buf); err != nil {
			return err
		}
		l.digest.Write(buf)
		l.segCount += n
		l.committed.Add(uint64(n))
		recs = recs[n:]
	}
	return nil
}

// writePublishLocked writes a 'P' frame into the open segment. Publish
// frames occupy no record capacity and stay in the segment whose records
// they follow.
func (l *Log) writePublishLocked(p Publish) error {
	if err := l.openSegmentLocked(); err != nil {
		return err
	}
	var buf [1 + pubBodySize + 4]byte
	buf[0] = framePublish
	binary.LittleEndian.PutUint64(buf[1:], uint64(p.Seq))
	binary.LittleEndian.PutUint64(buf[9:], p.Edges)
	binary.LittleEndian.PutUint64(buf[17:], uint64(p.Time))
	binary.LittleEndian.PutUint32(buf[25:], crc32.ChecksumIEEE(buf[:25]))
	if _, err := l.f.Write(buf[:]); err != nil {
		return err
	}
	l.digest.Write(buf[:])
	return nil
}
