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
// copies the touched pages plus the table. A snapshot may also be
// partitioned (Partition non-nil): it materializes complete rows only for
// an owned source range plus the truncated frontier rows the wedge kernels
// intersect against, while Degree still reports full-graph degrees.
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
	// resident counts materialized adjacency entries (each undirected edge
	// contributes up to two). Equal to 2*edges on full snapshots; smaller on
	// partitioned ones.
	resident int64
	part     *Partition
	// Time is the timestamp of the last edge included in the snapshot.
	Time int64
}

// Partition describes a partitioned snapshot: the shard owns candidate
// pairs whose min endpoint falls in [Lo, Hi) (the same ownership rule the
// prediction engines shard by). Owned rows are complete; every other
// materialized row is truncated to entries >= Lo — exactly what a wedge
// sweep from an owned source needs, since every candidate it can emit is
// > source >= Lo. Degrees remain full-graph values so witness weights and
// degree-based scores are bit-identical to an unpartitioned sweep.
type Partition struct {
	// Lo, Hi bound the owned source range [Lo, Hi). Hi may exceed the
	// snapshot's node count (an open-ended last shard); sweeps clamp.
	Lo, Hi NodeID
	// Full-graph degrees, paged like the rows; nil pages are all zero.
	degPages [][]int32
}

// Owns reports whether source u falls in the owned range.
func (p *Partition) Owns(u NodeID) bool { return u >= p.Lo && u < p.Hi }

func (p *Partition) degree(u NodeID) int {
	pg := p.degPages[int(u)>>pageShift]
	if pg == nil {
		return 0
	}
	return int(pg[int(u)&pageMask])
}

// Partition returns the partition descriptor, or nil for a full snapshot.
func (g *Graph) Partition() *Partition { return g.part }

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

// NumEdges returns the number of undirected edges. On a partitioned
// snapshot this is still the full-graph count.
func (g *Graph) NumEdges() int { return g.edges }

// Degree returns the degree of node u. On a partitioned snapshot this is
// the full-graph degree, which may exceed the materialized row length.
func (g *Graph) Degree(u NodeID) int {
	if g.part != nil {
		return g.part.degree(u)
	}
	return len(g.row(u))
}

// Neighbors returns the sorted adjacency list of u. The returned slice is
// shared with the graph and must not be modified. On a partitioned snapshot
// only owned rows are complete: frontier rows are truncated to entries
// >= Partition.Lo and unmaterialized rows are nil.
func (g *Graph) Neighbors(u NodeID) []NodeID { return g.row(u) }

// ResidentEntries returns the number of materialized adjacency entries
// (2*edges on a full snapshot; fewer on a partitioned one).
func (g *Graph) ResidentEntries() int64 { return g.resident }

// ResidentBytes estimates the resident size of the adjacency structure:
// entry payload plus row headers, page tables, and the partition's degree
// table. It is the quantity the cluster memory gauges and bench memory
// columns report.
func (g *Graph) ResidentBytes() int64 {
	const sliceHeader = 24
	b := g.resident*4 + int64(len(g.pages))*sliceHeader
	for _, pg := range g.pages {
		if pg != nil {
			b += pageSize * sliceHeader
		}
	}
	if g.part != nil {
		b += int64(len(g.part.degPages)) * sliceHeader
		for _, pg := range g.part.degPages {
			if pg != nil {
				b += pageSize * 4
			}
		}
	}
	return b
}

// HasEdge reports whether the undirected edge (u, v) exists. On a
// partitioned snapshot at least one endpoint must be owned (only owned rows
// are complete); callers respecting the min-endpoint ownership rule always
// satisfy this.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if int(u) >= g.NumNodes() || int(v) >= g.NumNodes() {
		return false
	}
	if g.part != nil {
		switch {
		case g.part.Owns(u):
		case g.part.Owns(v):
			u, v = v, u
		default:
			panic(fmt.Sprintf("graph: HasEdge(%d, %d) with neither endpoint in the owned range [%d, %d) of a partitioned snapshot",
				u, v, g.part.Lo, g.part.Hi))
		}
		a := g.row(u)
		i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
		return i < len(a) && a[i] == v
	}
	a := g.row(u)
	if b := g.row(v); len(b) < len(a) {
		a, v = b, u
	}
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
}

// CommonNeighbors returns the sorted intersection of the neighbor sets of u
// and v. The result is freshly allocated. Requires a full snapshot: on a
// partitioned one at most one of the two rows is complete.
func (g *Graph) CommonNeighbors(u, v NodeID) []NodeID {
	g.mustFull("CommonNeighbors")
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

// CountCommonNeighbors returns |Γ(u) ∩ Γ(v)| without allocating. Requires a
// full snapshot.
func (g *Graph) CountCommonNeighbors(u, v NodeID) int {
	g.mustFull("CountCommonNeighbors")
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

func (g *Graph) mustFull(op string) {
	if g.part != nil {
		panic(fmt.Sprintf("graph: %s requires a full snapshot, not a partitioned one owning [%d, %d)", op, g.part.Lo, g.part.Hi))
	}
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
	g.resident = 2 * int64(g.edges)
	return g
}

// PartitionView returns a partitioned view of the full snapshot g that owns
// source range [lo, hi): complete rows for owned sources, truncated rows
// for the 1-hop frontier (any node adjacent to an owned source), nil rows
// elsewhere. Rows are shared with g and pages are allocated only where an
// owned or frontier row lands — the view costs those row headers plus a
// degree table, never a copy of the entries.
//
// Frontier truncation is per-row minimal: row w keeps only entries
// >= τ_w, where τ_w is w's smallest owned neighbor. A wedge sweep from
// owned source u reads w's row only when u ∈ N(w), and only for entries
// v >= u >= τ_w (Predict skips v <= u itself; batch scoring of a pair whose
// min endpoint is u reads candidates v >= u) — so every readable entry
// survives. This is within one entry per frontier row of the information
// floor for exact local scores under min-endpoint ownership: any edge (w,v)
// with v > τ_w participates in a wedge τ_w–w–v this shard must count.
func PartitionView(g *Graph, lo, hi NodeID) *Graph {
	g.mustFull("PartitionView")
	n := g.NumNodes()
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("graph: PartitionView range [%d, %d) invalid", lo, hi))
	}
	np := pageCount(n)
	// One backing array for the degree table, sliced into pages.
	deg := make([]int32, np*pageSize)
	degPages := make([][]int32, np)
	for p := range degPages {
		degPages[p] = deg[p*pageSize : (p+1)*pageSize]
	}
	for u := 0; u < n; u++ {
		deg[u] = int32(len(g.row(NodeID(u))))
	}
	pages := make([][][]NodeID, np)
	// tau[w] = min owned neighbor of w, or -1 when w is not frontier.
	// Sources are visited in ascending order, so the first assignment wins.
	tau := make([]NodeID, n)
	for i := range tau {
		tau[i] = -1
	}
	var resident int64
	clampHi := hi
	if clampHi > NodeID(n) {
		clampHi = NodeID(n)
	}
	for u := lo; u < clampHi; u++ {
		row := g.row(u)
		if len(row) == 0 {
			continue
		}
		setRow(pages, int(u), row)
		resident += int64(len(row))
		for _, w := range row {
			if tau[w] < 0 {
				tau[w] = u
			}
		}
	}
	for w := 0; w < n; w++ {
		id := NodeID(w)
		if tau[w] < 0 || (id >= lo && id < clampHi) {
			continue
		}
		row := g.row(id)
		t := tau[w]
		i := sort.Search(len(row), func(i int) bool { return row[i] >= t })
		if i < len(row) {
			setRow(pages, w, row[i:])
			resident += int64(len(row) - i)
		}
	}
	return &Graph{
		pages:    pages,
		n:        n,
		edges:    g.edges,
		resident: resident,
		part:     &Partition{Lo: lo, Hi: hi, degPages: degPages},
		Time:     g.Time,
	}
}

// Subgraph returns the induced subgraph on the given node set, with node IDs
// remapped densely in the order given. The second return value maps new IDs
// back to original IDs. Requires a full snapshot.
func (g *Graph) Subgraph(nodes []NodeID) (*Graph, []NodeID) {
	g.mustFull("Subgraph")
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
