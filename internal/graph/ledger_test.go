package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"sync"
	"testing"
)

// TestLedgerAdmit pins the admission rule every tier shares: refused
// events assign nothing, endpoints get first-seen dense IDs (u before v),
// the trace clamps time, and a seeded ledger continues where its seed
// left off.
func TestLedgerAdmit(t *testing.T) {
	l, err := NewLedger(nil, []int64{})
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range []struct {
		u, v, t int64
		want    Edge
		ok      bool
	}{
		{70, 30, 5, Edge{0, 1, 5}, true},
		{-1, 99, 6, Edge{}, false}, // 99 must not be assigned
		{98, -5, 6, Edge{}, false}, // nor 98
		{97, 97, 6, Edge{}, false}, // nor 97
		{30, 5, 6, Edge{1, 2, 6}, true},
		{99, 70, 4, Edge{3, 0, 6}, true}, // clamped forward to the last time
		{0, 70, 9, Edge{4, 0, 9}, true},
	} {
		e, ok := l.Admit(tt.u, tt.v, tt.t)
		if e != tt.want || ok != tt.ok {
			t.Errorf("event %d (%d, %d @%d): got (%v, %v), want (%v, %v)", i, tt.u, tt.v, tt.t, e, ok, tt.want, tt.ok)
		}
	}
	if got, want := l.Externals(), []int64{70, 30, 5, 99, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("Externals() = %v, want %v", got, want)
	}
	if l.Len() != 4 || len(l.Trace().Edges) != 4 || l.Trace().NumNodes() != 5 {
		t.Errorf("Len() = %d, trace %d edges over %d nodes; want 4 over 5", l.Len(), len(l.Trace().Edges), l.Trace().NumNodes())
	}
	for _, id := range []int64{98, 97, -1} {
		if d, ok := l.Lookup(id); ok {
			t.Errorf("Lookup(%d) = %d: a refused event assigned an ID", id, d)
		}
	}

	seeded, err := NewLedger(&Trace{Arrival: []int64{1, 1}, Edges: []Edge{{0, 1, 1}}}, []int64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := seeded.Lookup(20); !ok || d != 1 {
		t.Errorf("seeded Lookup(20) = %d, %v", d, ok)
	}
	if e, ok := seeded.Admit(20, 40, 3); !ok || e != (Edge{1, 2, 3}) || seeded.Len() != 2 {
		t.Errorf("seeded Admit = (%v, %v), Len %d; want ({1 2 3}, true), 2", e, ok, seeded.Len())
	}

	// A nil table seeds identity IDs over the trace's nodes.
	warm, err := NewLedger(&Trace{Arrival: []int64{1, 1, 2}, Edges: []Edge{{0, 1, 1}, {1, 2, 2}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Externals(); !reflect.DeepEqual(got, []int64{0, 1, 2}) {
		t.Errorf("identity Externals() = %v", got)
	}
	if e, ok := warm.Admit(2, 7, 5); !ok || e != (Edge{2, 3, 5}) {
		t.Errorf("warm Admit = (%v, %v), want ({2 3 5}, true)", e, ok)
	}
}

// TestNewLedgerRefusesBadTables: a table binding one external ID twice, or
// not covering exactly the trace's nodes, is refused.
func TestNewLedgerRefusesBadTables(t *testing.T) {
	tr := &Trace{Arrival: []int64{1, 1}, Edges: []Edge{{0, 1, 1}}}
	if _, err := NewLedger(tr, []int64{10, 10}); err == nil {
		t.Error("a duplicate external ID was accepted")
	}
	if _, err := NewLedger(tr, []int64{10}); err == nil {
		t.Error("a table shorter than the node count was accepted")
	}
}

// TestLedgerReadersRace runs Lookup, Externals and Len against a stream
// of Admits; under -race it shows the readers need no lock of the
// caller's. Every view a reader takes must be internally consistent: the
// table is append-only, so each external in a captured table resolves
// back to its own dense ID.
func TestLedgerReadersRace(t *testing.T) {
	l, err := NewLedger(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ext := l.Externals()
				for d, id := range ext {
					if got, ok := l.Lookup(id); !ok || got != NodeID(d) {
						t.Errorf("Lookup(%d) = %d, %v; table says %d", id, got, ok, d)
						return
					}
				}
				if m := l.Len(); m < 0 || m > n {
					t.Errorf("Len() = %d outside [0, %d]", m, n)
					return
				}
			}
		}()
	}
	for i := int64(0); i < n; i++ {
		u, v := 1000+i%97*13, 1000+i%89*7+1
		if _, ok := l.Admit(u, v, i); !ok && u != v {
			t.Fatalf("event %d refused", i)
		}
	}
	close(stop)
	wg.Wait()
	if l.Len() != len(l.Trace().Edges) {
		t.Fatalf("Len() = %d, trace holds %d", l.Len(), len(l.Trace().Edges))
	}
}

// TestLedgerDigest pins the prefix digest a write-ahead log's chain is
// seeded with: zero for an empty trace, a fixed value for a fixed trace
// (it is part of the log's format), and different for a trace that
// differs in any one edge or arrival.
func TestLedgerDigest(t *testing.T) {
	empty, _ := NewLedger(nil, nil)
	if empty.Digest() != ([32]byte{}) {
		t.Fatal("empty trace digests to non-zero")
	}
	mk := func(arr []int64, es []Edge) [32]byte {
		l, err := NewLedger(&Trace{Arrival: arr, Edges: es}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return l.Digest()
	}
	base := mk([]int64{1, 1, 2}, []Edge{{0, 1, 1}, {1, 2, 2}})
	if got := hex.EncodeToString(base[:]); got != "3c07c2365e871c8802bd838be24fe1cfb7091e4ee748a107a76de3591e553d5d" {
		t.Errorf("digest = %s", got)
	}
	for name, d := range map[string][32]byte{
		"edge":    mk([]int64{1, 1, 2}, []Edge{{0, 1, 1}, {0, 2, 2}}),
		"time":    mk([]int64{1, 1, 2}, []Edge{{0, 1, 1}, {1, 2, 3}}),
		"arrival": mk([]int64{1, 1, 1}, []Edge{{0, 1, 1}, {1, 2, 2}}),
		"nodes":   mk([]int64{1, 1, 2, 2}, []Edge{{0, 1, 1}, {1, 2, 2}}),
	} {
		if d == base {
			t.Errorf("a trace differing in its %s digests the same", name)
		}
	}
	// The digest streams element by element; it must equal the arrays
	// hashed in one piece.
	big := &Trace{}
	for i := 0; i < 9000; i++ {
		big.Append(NodeID(i%500), NodeID(i%500+1), int64(i))
	}
	l, _ := NewLedger(big, nil)
	want := sha256.New()
	le := binary.LittleEndian
	var b []byte
	b = le.AppendUint64(le.AppendUint64(b, uint64(len(big.Arrival))), uint64(len(big.Edges)))
	for _, a := range big.Arrival {
		b = le.AppendUint64(b, uint64(a))
	}
	for _, e := range big.Edges {
		b = le.AppendUint64(le.AppendUint32(le.AppendUint32(b, uint32(e.U)), uint32(e.V)), uint64(e.Time))
	}
	want.Write(b)
	if got := l.Digest(); hex.EncodeToString(got[:]) != hex.EncodeToString(want.Sum(nil)) {
		t.Error("streamed digest differs from the one-piece hash")
	}
}
