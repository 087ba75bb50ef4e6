package graph

import (
	"math/rand"
	"testing"
)

// TestConstructorsAgreeOnLayout pins the single snapshot layout from every
// side that produces it for a trace prefix: Build and
// IncrementalBuilder.AtEdge must agree row for row, degree for degree and on
// ResidentBytes. The trace spans several row
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
		built, g := tr.SnapshotAtEdge(m), inc.AtEdge(m)
		if !graphsEqual(g, built) {
			t.Fatalf("m=%d: AtEdge rows differ from Build", m)
		}
		for u := 0; u < built.NumNodes(); u++ {
			if g.Degree(NodeID(u)) != built.Degree(NodeID(u)) {
				t.Fatalf("m=%d: Degree(%d) = %d, want %d", m, u, g.Degree(NodeID(u)), built.Degree(NodeID(u)))
			}
		}
		if g.ResidentBytes() != built.ResidentBytes() {
			t.Errorf("m=%d: ResidentBytes = %d, want %d", m, g.ResidentBytes(), built.ResidentBytes())
		}
	}
}
