package csr

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"linkpred/internal/graph"
)

// hubbyGraph builds a deterministic power-law-ish graph: a few dense hubs
// wired to most of the node set plus random low-degree filler edges.
func hubbyGraph(t *testing.T, n, hubs int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for h := 0; h < hubs; h++ {
		for v := hubs; v < n; v++ {
			if rng.Intn(hubs+1) <= h {
				edges = append(edges, graph.Edge{U: graph.NodeID(h), V: graph.NodeID(v)})
			}
		}
	}
	for i := 0; i < n; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return graph.Build(n, edges)
}

// degreeOrder is the canonical order Build expects: degree descending, ties
// by ascending ID (snapcache.DegreeOrder, rebuilt here so the package tests
// stay below snapcache).
func degreeOrder(g *graph.Graph) []graph.NodeID {
	order := make([]graph.NodeID, g.NumNodes())
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	slices.SortStableFunc(order, func(a, b graph.NodeID) int {
		if c := cmp.Compare(g.Degree(b), g.Degree(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

func TestBuildOrderIsCanonical(t *testing.T) {
	g := hubbyGraph(t, 500, 4, 1)
	v := Build(g, degreeOrder(g), 0)
	if len(v.Order) != g.NumNodes() || len(v.Rank) != g.NumNodes() {
		t.Fatalf("order/rank sizes = %d/%d, want %d", len(v.Order), len(v.Rank), g.NumNodes())
	}
	for r := 1; r < len(v.Order); r++ {
		a, b := v.Order[r-1], v.Order[r]
		da, db := g.Degree(a), g.Degree(b)
		if da < db || (da == db && a > b) {
			t.Fatalf("order not degree-desc/id-asc at rank %d: node %d (deg %d) before node %d (deg %d)", r, a, da, b, db)
		}
	}
	for r, u := range v.Order {
		if int(v.Rank[u]) != r {
			t.Fatalf("Rank[%d] = %d, want %d", u, v.Rank[u], r)
		}
	}
}

func TestHubBitsMatchAdjacency(t *testing.T) {
	g := hubbyGraph(t, 800, 6, 2)
	v := Build(g, degreeOrder(g), 0)
	if v.Hubs == 0 {
		t.Fatal("expected at least one hub row")
	}
	for r := 0; r < v.Hubs; r++ {
		u := v.Order[r]
		if g.Degree(u) < MinHubDegree {
			t.Fatalf("hub %d has degree %d < MinHubDegree", u, g.Degree(u))
		}
		b := v.HubBits(u)
		if b == nil {
			t.Fatalf("HubBits(%d) = nil for hub rank %d", u, r)
		}
		var got []graph.NodeID
		for id := graph.NodeID(0); int(id) < g.NumNodes(); id++ {
			if b.Has(id) {
				got = append(got, id)
			}
		}
		if !slices.Equal(got, g.Neighbors(u)) {
			t.Fatalf("bitset row of node %d disagrees with adjacency", u)
		}
	}
	if nonHub := v.Order[len(v.Order)-1]; v.HubBits(nonHub) != nil && v.Hubs < g.NumNodes() {
		t.Fatalf("HubBits for non-hub %d should be nil", nonHub)
	}
}

func TestHubBudgetLimitsRows(t *testing.T) {
	g := hubbyGraph(t, 1000, 8, 3)
	// Budget for exactly three rows.
	words := (g.NumNodes() + 63) / 64
	v := Build(g, degreeOrder(g), 3*words*8)
	if v.Hubs > 3 {
		t.Fatalf("Hubs = %d, want <= 3 under a 3-row budget", v.Hubs)
	}
	if v.words != words {
		t.Fatalf("words = %d, want %d", v.words, words)
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		g := graph.Build(n, nil)
		v := Build(g, degreeOrder(g), 0)
		if v.Hubs != 0 {
			t.Fatalf("n=%d: Hubs = %d, want 0 (all degrees < MinHubDegree)", n, v.Hubs)
		}
		if len(v.Order) != n {
			t.Fatalf("n=%d: len(Order) = %d", n, len(v.Order))
		}
	}
}
