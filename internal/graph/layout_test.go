package graph

import (
	"math/rand"
	"testing"
)

// TestConstructorsAgreeOnLayout pins the single snapshot layout from every
// side that produces it: Build, a FromCSR round trip and
// IncrementalBuilder.AtEdge must agree row for row, degree for degree and on
// ResidentBytes for the same trace prefix. The trace spans several row
// pages, with late isolated arrivals so trailing pages hold no rows at all.
func TestConstructorsAgreeOnLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, m = 900, 3000
	tr := &Trace{Name: "layout", Arrival: make([]int64, n)}
	for i := 0; i < m; i++ {
		u, v := NodeID(rng.Intn(n-300)), NodeID(rng.Intn(n-300))
		if u == v {
			continue
		}
		tr.Edges = append(tr.Edges, Edge{U: u, V: v, Time: int64(i)})
		if rng.Intn(5) == 0 {
			tr.Edges = append(tr.Edges, Edge{U: v, V: u, Time: int64(i)}) // duplicate
		}
	}
	inc := NewIncrementalBuilder(tr)
	for _, m := range []int{0, 1, 700, len(tr.Edges)} {
		built := tr.SnapshotAtEdge(m)
		rowptr, cols := csrOf(built)
		loaded, err := FromCSR(built.NumNodes(), rowptr, cols, built.NumEdges(), built.Time)
		if err != nil {
			t.Fatalf("m=%d: FromCSR: %v", m, err)
		}
		for name, g := range map[string]*Graph{"FromCSR": loaded, "AtEdge": inc.AtEdge(m)} {
			requireSameGraph(t, g, built, name)
			for u := 0; u < built.NumNodes(); u++ {
				if g.Degree(NodeID(u)) != built.Degree(NodeID(u)) {
					t.Fatalf("m=%d %s: Degree(%d) = %d, want %d", m, name, u, g.Degree(NodeID(u)), built.Degree(NodeID(u)))
				}
			}
			if g.ResidentBytes() != built.ResidentBytes() {
				t.Errorf("m=%d %s: ResidentBytes = %d, want %d", m, name, g.ResidentBytes(), built.ResidentBytes())
			}
		}
	}
}
