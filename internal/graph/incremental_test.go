package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// graphsEqual compares two snapshots field for field.
func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.Time != b.Time {
		return false
	}
	for u := 0; u < a.NumNodes(); u++ {
		if !slices.Equal(a.Neighbors(NodeID(u)), b.Neighbors(NodeID(u))) {
			return false
		}
	}
	return true
}

func TestIncrementalMatchesSnapshotAtEdge(t *testing.T) {
	tr := testTrace()
	b := NewIncrementalBuilder(tr)
	// Every prefix, including m=0 and repeated counts past the end.
	for m := 0; m <= tr.NumEdges()+1; m++ {
		got := b.AtEdge(m)
		want := tr.SnapshotAtEdge(m)
		if !graphsEqual(got, want) {
			t.Fatalf("AtEdge(%d): n=%d e=%d t=%d, want n=%d e=%d t=%d",
				m, got.NumNodes(), got.NumEdges(), got.Time,
				want.NumNodes(), want.NumEdges(), want.Time)
		}
	}
}

// randomTrace builds a consistent trace: non-decreasing arrivals, edges only
// among arrived nodes, with duplicate edges mixed in to exercise dedup.
func randomTrace(rng *rand.Rand) *Trace {
	n := 2 + rng.Intn(25)
	arr := make([]int64, n)
	for i := 1; i < n; i++ {
		arr[i] = arr[i-1] + int64(rng.Intn(4))
	}
	var edges []Edge
	tm := arr[0]
	for i := 0; i < rng.Intn(80); i++ {
		tm += int64(rng.Intn(3))
		alive := 0
		for alive < n && arr[alive] <= tm {
			alive++
		}
		if alive < 2 {
			continue
		}
		u := NodeID(rng.Intn(alive))
		v := NodeID(rng.Intn(alive))
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: u, V: v, Time: tm})
		if rng.Intn(4) == 0 {
			// Duplicate (possibly flipped) to exercise the dedup path.
			edges = append(edges, Edge{U: v, V: u, Time: tm})
		}
	}
	return &Trace{Name: "q", Arrival: arr, Edges: edges}
}

// Property: the incremental builder reproduces SnapshotAtEdge over a full
// cut sequence of a random trace, and earlier snapshots stay immutable as
// the builder advances past them.
func TestIncrementalMatchesSnapshotQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		cuts := tr.Cuts(1 + rng.Intn(5))
		b := NewIncrementalBuilder(tr)
		type emitted struct {
			m int
			g *Graph
		}
		var prev []emitted
		for _, c := range cuts {
			g := b.AtEdge(c.EdgeCount)
			if !graphsEqual(g, tr.SnapshotAtEdge(c.EdgeCount)) {
				return false
			}
			prev = append(prev, emitted{c.EdgeCount, g})
		}
		// Copy-on-write must not have bled later deltas into earlier emits.
		for _, e := range prev {
			if !graphsEqual(e.g, tr.SnapshotAtEdge(e.m)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalPanicsOnDecreasing(t *testing.T) {
	b := NewIncrementalBuilder(testTrace())
	b.AtEdge(4)
	defer func() {
		if recover() == nil {
			t.Fatal("AtEdge(2) after AtEdge(4) should panic")
		}
	}()
	b.AtEdge(2)
}

// TestIncrementalDeltaSchedulesQuick: randomized batch schedules (not just
// Cuts) reproduce SnapshotAtEdge exactly, including degenerate zero-edge
// batches, on the paged delta-publish layout.
func TestIncrementalDeltaSchedulesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		b := NewIncrementalBuilder(tr)
		m := 0
		for m < tr.NumEdges() {
			m += rng.Intn(7) // zero-length batches included
			if m > tr.NumEdges() {
				m = tr.NumEdges()
			}
			if !graphsEqual(b.AtEdge(m), tr.SnapshotAtEdge(m)) {
				return false
			}
		}
		return graphsEqual(b.AtEdge(tr.NumEdges()), tr.SnapshotAtEdge(tr.NumEdges()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// warmPublishTrace builds a wide trace (all nodes arrive up front, edges in
// timestamp order) so publish-time costs can be measured at a given node
// count.
func warmPublishTrace(rng *rand.Rand, n, m int) *Trace {
	arr := make([]int64, n)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: u, V: v, Time: 1})
	}
	return &Trace{Name: "warm", Arrival: arr, Edges: edges}
}

// TestWarmPublishAllocs is the delta-publish allocation guard: once the
// builder is warm, publishing a small batch allocates O(touched rows + top
// page table), independent of the node count. A full-CSR rebuild (or a
// per-node page table copy) would blow the bound by orders of magnitude.
func TestWarmPublishAllocs(t *testing.T) {
	for _, n := range []int{4096, 32768} {
		rng := rand.New(rand.NewSource(int64(n)))
		tr := warmPublishTrace(rng, n, n*4)
		b := NewIncrementalBuilder(tr)
		warm := tr.NumEdges() / 2
		b.AtEdge(warm)
		const batch = 16
		m := warm
		allocs := testing.AllocsPerRun(20, func() {
			m += batch
			if m > tr.NumEdges() {
				t.Fatalf("trace too short for alloc run")
			}
			b.AtEdge(m)
		})
		// Per publish: one top page-table copy, up to `batch` row clones and
		// 2*batch page clones (amortized arena slabs add a fraction more).
		// The bound is deliberately loose but far below O(n) — a per-node
		// cost at n=32768 would show up as thousands of allocations.
		if allocs > 128 {
			t.Fatalf("n=%d: warm publish of %d edges allocated %.0f times; want O(touched rows)", n, batch, allocs)
		}
	}
}
