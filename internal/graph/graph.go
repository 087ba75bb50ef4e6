// Package graph provides the dynamic-network substrate used throughout the
// reproduction: timestamped edge traces, immutable graph snapshots with
// sorted adjacency lists, and the constant-delta snapshot sequencing that
// drives the paper's evaluation methodology (§3.2).
//
// Node identifiers are dense int32 values assigned in arrival order, which
// keeps snapshots compact and lets adjacency be stored as slices rather than
// maps even for graphs with millions of edges.
//
// Every snapshot has one physical layout: rows grouped into fixed-size
// pages under a small top-level page table, so an incremental publish only
// copies the touched pages plus the table.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node within a trace. IDs are dense and assigned in
// arrival order starting from zero.
type NodeID = int32

// Edge is a single timestamped, undirected link creation event. U < V is not
// required on input; snapshots canonicalize internally.
type Edge struct {
	U, V NodeID
	// Time is seconds since the trace epoch.
	Time int64
}

// Rows are grouped into pages of 1<<pageShift nodes, so publishing a
// snapshot copies O(touched pages) instead of O(nodes) row headers.
const (
	pageShift = 8
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// pageCount returns the number of pages covering n rows.
func pageCount(n int) int { return (n + pageSize - 1) >> pageShift }

// setRow stores row u in pages, allocating its page on first use.
func setRow(pages [][][]NodeID, u int, row []NodeID) {
	p := u >> pageShift
	if pages[p] == nil {
		pages[p] = make([][]NodeID, pageSize)
	}
	pages[p][u&pageMask] = row
}

// Graph is an immutable snapshot of an undirected network at a point in
// time. Adjacency lists are sorted by NodeID, enabling O(log d) membership
// tests and linear-time neighborhood intersection.
type Graph struct {
	pages [][][]NodeID // row u is pages[u>>pageShift][u&pageMask]; nil pages hold no rows
	n     int
	edges int
	// Time is the timestamp of the last edge included in the snapshot.
	Time int64
}

// row returns the materialized adjacency row of u.
func (g *Graph) row(u NodeID) []NodeID {
	pg := g.pages[int(u)>>pageShift]
	if pg == nil {
		return nil
	}
	return pg[int(u)&pageMask]
}

// NumNodes returns the number of nodes in the snapshot, including isolated
// nodes that have arrived but created no edges yet.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Degree returns the degree of node u.
func (g *Graph) Degree(u NodeID) int { return len(g.row(u)) }

// Neighbors returns the sorted adjacency list of u. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(u NodeID) []NodeID { return g.row(u) }

// ResidentBytes estimates the resident size of the adjacency structure:
// entry payload plus row headers and page tables. It is the quantity the
// serving memory gauges and bench memory rows report.
func (g *Graph) ResidentBytes() int64 {
	const sliceHeader = 24
	b := int64(g.edges)*8 + int64(len(g.pages))*sliceHeader
	for _, pg := range g.pages {
		if pg != nil {
			b += pageSize * sliceHeader
		}
	}
	return b
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if int(u) >= g.NumNodes() || int(v) >= g.NumNodes() {
		return false
	}
	a := g.row(u)
	if b := g.row(v); len(b) < len(a) {
		a, v = b, u
	}
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
}

// CommonNeighbors returns the sorted intersection of the neighbor sets of u
// and v. The result is freshly allocated.
func (g *Graph) CommonNeighbors(u, v NodeID) []NodeID {
	a, b := g.row(u), g.row(v)
	out := make([]NodeID, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// CountCommonNeighbors returns |Γ(u) ∩ Γ(v)| without allocating.
func (g *Graph) CountCommonNeighbors(u, v NodeID) int {
	a, b := g.row(u), g.row(v)
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// UnconnectedPairs returns the number of unordered node pairs with no edge
// between them: C(n,2) - |E|. This is the denominator of the paper's
// random-prediction expectation.
func (g *Graph) UnconnectedPairs() int64 {
	n := int64(g.NumNodes())
	return n*(n-1)/2 - int64(g.edges)
}

// Build constructs a snapshot from a set of edges over n nodes. Duplicate
// edges and self-loops are dropped. The snapshot Time is the maximum edge
// timestamp (zero for an empty edge set).
func Build(n int, edges []Edge) *Graph {
	g := &Graph{pages: make([][][]NodeID, pageCount(n)), n: n}
	deg := make([]int32, n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		deg[e.U]++
		deg[e.V]++
	}
	for u, d := range deg {
		if d > 0 {
			setRow(g.pages, u, make([]NodeID, 0, d))
		}
	}
	push := func(u, v NodeID) {
		row := &g.pages[int(u)>>pageShift][int(u)&pageMask]
		*row = append(*row, v)
	}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		push(e.U, e.V)
		push(e.V, e.U)
		if e.Time > g.Time {
			g.Time = e.Time
		}
	}
	for _, pg := range g.pages {
		for i, a := range pg {
			slices.Sort(a)
			// Deduplicate in place.
			w := 0
			for j := range a {
				if j == 0 || a[j] != a[j-1] {
					a[w] = a[j]
					w++
				}
			}
			pg[i] = a[:w]
			g.edges += w
		}
	}
	g.edges /= 2
	return g
}

// Subgraph returns the induced subgraph on the given node set, with node IDs
// remapped densely in the order given. The second return value maps new IDs
// back to original IDs.
func (g *Graph) Subgraph(nodes []NodeID) (*Graph, []NodeID) {
	// IDs are dense by construction, so the remap is a flat slice indexed by
	// original ID (-1 = not selected) — no hashing on the extraction path,
	// which snowball sampling hits once per evaluation seed.
	remap := make([]NodeID, g.NumNodes())
	for i := range remap {
		remap[i] = -1
	}
	for i, v := range nodes {
		remap[v] = NodeID(i)
	}
	var edges []Edge
	for i, v := range nodes {
		for _, w := range g.row(v) {
			if j := remap[w]; j >= 0 && NodeID(i) < j {
				edges = append(edges, Edge{U: NodeID(i), V: j, Time: g.Time})
			}
		}
	}
	sub := Build(len(nodes), edges)
	sub.Time = g.Time
	back := make([]NodeID, len(nodes))
	copy(back, nodes)
	return sub, back
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes=%d edges=%d time=%d}", g.NumNodes(), g.edges, g.Time)
}
