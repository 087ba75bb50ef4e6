package graph

import (
	"testing"
)

func csrTestTrace() *Trace {
	t := &Trace{Name: "csr"}
	// A small deterministic growth pattern with hubs, isolated arrivals via
	// same-timestamp batches, and duplicate edges (dropped by Build).
	edges := [][3]int64{
		{0, 1, 10}, {0, 2, 10}, {1, 2, 11}, {2, 3, 12}, {0, 3, 12},
		{3, 4, 13}, {4, 5, 13}, {0, 5, 14}, {1, 5, 14}, {2, 5, 15},
		{5, 6, 16}, {6, 7, 16}, {0, 7, 17}, {3, 7, 18}, {1, 4, 19},
	}
	for _, e := range edges {
		if _, err := t.Append(NodeID(e[0]), NodeID(e[1]), e[2]); err != nil {
			panic(err)
		}
	}
	return t
}

// csrOf dumps g in the compressed-sparse-row form checkpoints store.
func csrOf(g *Graph) (rowptr []int64, cols []NodeID) {
	rowptr = make([]int64, g.NumNodes()+1)
	for u := 0; u < g.NumNodes(); u++ {
		cols = append(cols, g.Neighbors(NodeID(u))...)
		rowptr[u+1] = int64(len(cols))
	}
	return rowptr, cols
}

func requireSameGraph(t *testing.T, got, want *Graph, label string) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() || got.Time != want.Time {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	for u := 0; u < want.NumNodes(); u++ {
		a, b := got.Neighbors(NodeID(u)), want.Neighbors(NodeID(u))
		if len(a) != len(b) {
			t.Fatalf("%s: node %d degree %d, want %d", label, u, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: node %d entry %d = %d, want %d", label, u, i, a[i], b[i])
			}
		}
	}
}

func TestCSRRoundTrip(t *testing.T) {
	tr := csrTestTrace()
	for _, m := range []int{0, 1, 7, tr.NumEdges()} {
		g := tr.SnapshotAtEdge(m)
		rowptr, cols := csrOf(g)
		back, err := FromCSR(g.NumNodes(), rowptr, cols, g.NumEdges(), g.Time)
		if err != nil {
			t.Fatalf("FromCSR at %d: %v", m, err)
		}
		requireSameGraph(t, back, g, "round trip")
	}
}

func TestCSRRoundTripPaged(t *testing.T) {
	// Incremental emissions must dump identically to offline builds.
	tr := csrTestTrace()
	b := NewIncrementalBuilder(tr)
	g := b.AtEdge(tr.NumEdges())
	rowptr, cols := csrOf(g)
	back, err := FromCSR(g.NumNodes(), rowptr, cols, g.NumEdges(), g.Time)
	if err != nil {
		t.Fatalf("FromCSR: %v", err)
	}
	requireSameGraph(t, back, tr.SnapshotAtEdge(tr.NumEdges()), "paged round trip")
}

func TestFromCSRRejectsMalformed(t *testing.T) {
	g := csrTestTrace().SnapshotAtEdge(15)
	rowptr, cols := csrOf(g)
	n, e, tm := g.NumNodes(), g.NumEdges(), g.Time

	cases := []struct {
		name   string
		mutate func(rp []int64, cs []NodeID) (int, []int64, []NodeID, int)
	}{
		{"short rowptr", func(rp []int64, cs []NodeID) (int, []int64, []NodeID, int) {
			return n, rp[:n], cs, e
		}},
		{"nonzero origin", func(rp []int64, cs []NodeID) (int, []int64, []NodeID, int) {
			rp[0] = 1
			return n, rp, cs, e
		}},
		{"count mismatch", func(rp []int64, cs []NodeID) (int, []int64, []NodeID, int) {
			return n, rp, cs, e + 1
		}},
		{"non-monotone rowptr", func(rp []int64, cs []NodeID) (int, []int64, []NodeID, int) {
			rp[1], rp[2] = rp[2]+1, rp[1]
			rp[1] = rp[2] + 1
			return n, rp, cs, e
		}},
		{"out of range entry", func(rp []int64, cs []NodeID) (int, []int64, []NodeID, int) {
			cs[0] = NodeID(n)
			return n, rp, cs, e
		}},
		{"self loop", func(rp []int64, cs []NodeID) (int, []int64, []NodeID, int) {
			cs[rp[3]] = 3
			return n, rp, cs, e
		}},
		{"unsorted row", func(rp []int64, cs []NodeID) (int, []int64, []NodeID, int) {
			cs[0], cs[1] = cs[1], cs[0]
			return n, rp, cs, e
		}},
		{"asymmetric", func(rp []int64, cs []NodeID) (int, []int64, []NodeID, int) {
			// Retarget 0's entry for node 7 to node 6, which does not point
			// back (row stays sorted: [... 5, 6]).
			row := cs[rp[0]:rp[1]]
			row[len(row)-1] = 6
			return n, rp, cs, e
		}},
	}
	for _, tc := range cases {
		rp := append([]int64(nil), rowptr...)
		cs := append([]NodeID(nil), cols...)
		nn, nrp, ncs, ne := tc.mutate(rp, cs)
		if _, err := FromCSR(nn, nrp, ncs, ne, tm); err == nil {
			t.Errorf("%s: FromCSR accepted malformed input", tc.name)
		}
	}
}

func TestIncrementalBuilderFromMatchesOffline(t *testing.T) {
	tr := csrTestTrace()
	total := tr.NumEdges()
	for _, m := range []int{0, 1, 6, 10, total} {
		seed := tr.SnapshotAtEdge(m)
		// Route through CSR to mimic the checkpoint-recovery path exactly.
		rowptr, cols := csrOf(seed)
		loaded, err := FromCSR(seed.NumNodes(), rowptr, cols, seed.NumEdges(), seed.Time)
		if err != nil {
			t.Fatalf("FromCSR at %d: %v", m, err)
		}
		b := NewIncrementalBuilderFrom(tr, loaded, m)
		for k := m; k <= total; k += 3 {
			got := b.AtEdge(k)
			requireSameGraph(t, got, tr.SnapshotAtEdge(k), "seeded builder")
		}
		// The seed snapshot must be untouched: copy-on-write protects the
		// (possibly memory-mapped) source rows.
		requireSameGraph(t, loaded, seed, "seed immutability")
	}
}

func TestIncrementalBuilderFromDoesNotMutateColsBuffer(t *testing.T) {
	tr := csrTestTrace()
	m := 8
	seed := tr.SnapshotAtEdge(m)
	rowptr, cols := csrOf(seed)
	orig := append([]NodeID(nil), cols...)
	loaded, err := FromCSR(seed.NumNodes(), rowptr, cols, seed.NumEdges(), seed.Time)
	if err != nil {
		t.Fatal(err)
	}
	b := NewIncrementalBuilderFrom(tr, loaded, m)
	b.AtEdge(tr.NumEdges())
	for i := range cols {
		if cols[i] != orig[i] {
			t.Fatalf("cols[%d] mutated from %d to %d — builder wrote through the shared buffer", i, orig[i], cols[i])
		}
	}
}
