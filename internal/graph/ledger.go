package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Ledger is a growing trace together with its external↔dense node-ID map
// and the one admission rule that extends both. Every tier that replays
// the event stream — a server's ingest, a cluster router's evaluation
// mirror, write-ahead-log replay — admits through a Ledger, so dense IDs
// and trace indices agree across them by construction.
//
// Callers serialize Admit. Lookup, Externals and Len may run concurrently
// with it; the trace itself (Trace) is read under the caller's
// serialization, or through slice headers captured there — its arrays,
// like the ID table, are append-only.
type Ledger struct {
	tr *Trace
	n  atomic.Int64 // len(tr.Edges), for readers that take no lock

	mu    sync.RWMutex // guards dense and ext against concurrent readers
	dense map[int64]NodeID
	ext   []int64
}

// NewLedger wraps tr (nil means empty) and its dense → external table ext,
// taking ownership of both. A nil ext seeds identity IDs, external i for
// dense i, which is how a warm-start trace's nodes are addressed.
// Otherwise the inverse is derived, and a table that binds one external
// ID twice or does not cover exactly the trace's nodes is refused.
func NewLedger(tr *Trace, ext []int64) (*Ledger, error) {
	if tr == nil {
		tr = &Trace{}
	}
	if ext == nil {
		ext = make([]int64, tr.NumNodes())
		for i := range ext {
			ext[i] = int64(i)
		}
	}
	if len(ext) != tr.NumNodes() {
		return nil, fmt.Errorf("ledger: %d external IDs for %d nodes", len(ext), tr.NumNodes())
	}
	dense := make(map[int64]NodeID, len(ext))
	for d, id := range ext {
		if prev, dup := dense[id]; dup {
			return nil, fmt.Errorf("ledger: external id %d maps to dense %d and %d", id, prev, d)
		}
		dense[id] = NodeID(d)
	}
	l := &Ledger{tr: tr, dense: dense, ext: ext}
	l.n.Store(int64(len(tr.Edges)))
	return l, nil
}

// Admit applies the admission rule to one event in external ID space: an
// event with a negative or repeated endpoint is refused and assigns
// nothing; otherwise each endpoint gets the next dense ID on first sight,
// u before v, and the pair is appended to the trace, which clamps the
// time. It returns the edge as recorded.
func (l *Ledger) Admit(extU, extV, t int64) (Edge, bool) {
	if extU < 0 || extV < 0 || extU == extV {
		return Edge{}, false
	}
	e, err := l.tr.Append(l.assign(extU), l.assign(extV), t)
	if err != nil {
		// Admitted endpoints are dense, non-negative and distinct.
		panic(err)
	}
	l.n.Store(int64(len(l.tr.Edges)))
	return e, true
}

func (l *Ledger) assign(id int64) NodeID {
	if d, ok := l.Lookup(id); ok {
		return d
	}
	l.mu.Lock()
	d := NodeID(len(l.ext))
	l.dense[id] = d
	l.ext = append(l.ext, id)
	l.mu.Unlock()
	return d
}

// Lookup resolves an external ID without assigning.
func (l *Ledger) Lookup(id int64) (NodeID, bool) {
	l.mu.RLock()
	d, ok := l.dense[id]
	l.mu.RUnlock()
	return d, ok
}

// Externals returns the dense → external table: Externals()[d] is the ID
// dense d was assigned for. The table is append-only, so the returned
// slice is an immutable as-of-now view.
func (l *Ledger) Externals() []int64 {
	l.mu.RLock()
	ext := l.ext
	l.mu.RUnlock()
	return ext
}

// Len returns the number of admitted edges in the trace.
func (l *Ledger) Len() int { return int(l.n.Load()) }

// Trace returns the ledger's trace. Extend it only through Admit.
func (l *Ledger) Trace() *Trace { return l.tr }

// Digest is the SHA-256 of the trace's arrival and edge arrays: the node
// and edge counts as u64, each arrival as i64, each edge as u i32 | v i32
// | t i64, all little-endian. An empty trace digests to zero. A
// write-ahead log seeds its segment chain with the digest of the prefix
// it extends, which binds the log to that prefix. Callers serialize it
// with Admit.
func (l *Ledger) Digest() [32]byte {
	var sum [32]byte
	a, es := l.tr.Arrival, l.tr.Edges
	if len(a) == 0 && len(es) == 0 {
		return sum
	}
	le := binary.LittleEndian
	h := sha256.New()
	h.Write(le.AppendUint64(le.AppendUint64(nil, uint64(len(a))), uint64(len(es))))
	var b [16]byte
	for _, x := range a {
		h.Write(le.AppendUint64(b[:0], uint64(x)))
	}
	for _, e := range es {
		h.Write(le.AppendUint64(le.AppendUint32(le.AppendUint32(b[:0], uint32(e.U)), uint32(e.V)), uint64(e.Time)))
	}
	h.Sum(sum[:0])
	return sum
}
