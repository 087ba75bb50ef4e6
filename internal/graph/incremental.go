package graph

import (
	"fmt"
	"sort"

	"linkpred/internal/obs"
)

const (
	// rowHeadroom is the extra capacity cloned rows get so a few subsequent
	// inserts extend in place instead of re-allocating.
	rowHeadroom = 4
	// slabEntries sizes the arena slabs row clones are carved from. Clones
	// bump-allocate out of the current slab, so a warm publish of a small
	// batch performs O(touched rows) allocations instead of one per clone
	// plus one per node.
	slabEntries = 1 << 15
)

// IncrementalBuilder materializes the snapshot sequence of one trace by
// extending the previous cut's adjacency with the trace delta, instead of
// re-sorting the whole O(E) edge prefix per cut the way SnapshotAtEdge
// does. Emitted graphs honor the immutability contract via a paged
// copy-on-write layout: rows live in fixed-size pages, a row or page is
// cloned before its first mutation after an emit, and AtEdge publishes by
// copying only the small top-level page table — O(nodes/pageSize + touched
// pages), not O(nodes). Row clones are carved from arena slabs reused
// across epochs, so a warm publish of a small batch allocates O(touched
// rows).
//
// AtEdge must be called with non-decreasing edge counts; snapshots are
// identical to t.SnapshotAtEdge(m) row for row (pinned by
// TestIncrementalMatchesSnapshotAtEdge).
type IncrementalBuilder struct {
	t     *Trace
	m     int // edges applied so far
	n     int // rows allocated
	edges int

	pages   [][][]NodeID
	pageGen []int32
	// emitGen counts emitted snapshots; rowGen[u] records the generation in
	// which row u was last cloned (rows at the current generation are owned
	// by the builder and may be mutated in place).
	emitGen int32
	rowGen  []int32
	slab    []NodeID

	deltaRows  int64 // rows cloned or created, cumulative across emits
	deltaPages int64 // pages cloned or created, cumulative across emits
}

// NewIncrementalBuilder returns a builder positioned before the first edge.
func NewIncrementalBuilder(t *Trace) *IncrementalBuilder {
	return &IncrementalBuilder{t: t}
}

// Applied returns the number of trace edges already folded into the
// builder's adjacency — the edge count of the last emitted snapshot. Live
// ingestion uses it to measure how far published snapshots lag the trace.
func (b *IncrementalBuilder) Applied() int { return b.m }

// Trace returns the trace this builder materializes snapshots of.
func (b *IncrementalBuilder) Trace() *Trace { return b.t }

// DeltaRows returns the cumulative number of row clones performed — the
// copy-on-write work the delta publishes did. Serving layers diff it across
// publishes for the publish_delta_rows counter.
func (b *IncrementalBuilder) DeltaRows() int64 { return b.deltaRows }

// DeltaPages returns the cumulative number of page clones performed.
func (b *IncrementalBuilder) DeltaPages() int64 { return b.deltaPages }

// touchPage returns a page the builder may mutate, cloning it if it is
// shared with an emitted snapshot.
func (b *IncrementalBuilder) touchPage(p int) [][]NodeID {
	pg := b.pages[p]
	if pg == nil || b.pageGen[p] != b.emitGen {
		clone := make([][]NodeID, pageSize)
		copy(clone, pg)
		b.pages[p] = clone
		b.pageGen[p] = b.emitGen
		b.deltaPages++
		pg = clone
	}
	return pg
}

// cloneRow copies row into the arena with headroom.
func (b *IncrementalBuilder) cloneRow(row []NodeID) []NodeID {
	need := len(row) + rowHeadroom
	if need > len(b.slab) {
		size := slabEntries
		if need > size {
			size = need
		}
		b.slab = make([]NodeID, size)
	}
	clone := b.slab[:len(row):need]
	b.slab = b.slab[need:]
	copy(clone, row)
	return clone
}

// insert adds v to u's sorted row, returning false on duplicates.
func (b *IncrementalBuilder) insert(u, v NodeID) bool {
	var row []NodeID
	if pg := b.pages[int(u)>>pageShift]; pg != nil {
		row = pg[int(u)&pageMask]
	}
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	if i < len(row) && row[i] == v {
		return false
	}
	if b.rowGen[u] != b.emitGen {
		// The row's backing array is shared with an emitted snapshot; clone
		// with headroom before shifting in place.
		row = b.cloneRow(row)
		b.rowGen[u] = b.emitGen
		b.deltaRows++
	}
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = v
	pg := b.touchPage(int(u) >> pageShift)
	pg[int(u)&pageMask] = row
	return true
}

// apply folds one trace edge into the builder state.
func (b *IncrementalBuilder) apply(e Edge) {
	if e.U == e.V {
		return
	}
	if top := max(e.U, e.V); int(top) >= b.n {
		b.grow(int(top) + 1)
	}
	if b.insert(e.U, e.V) {
		b.insert(e.V, e.U)
		b.edges++
	}
}

// AtEdge applies trace edges up to count m and returns the snapshot, which
// matches t.SnapshotAtEdge(m) exactly. m must be
// non-decreasing across calls.
func (b *IncrementalBuilder) AtEdge(m int) *Graph {
	if m > len(b.t.Edges) {
		m = len(b.t.Edges)
	}
	if m < b.m {
		panic(fmt.Sprintf("graph: IncrementalBuilder.AtEdge(%d) after %d; counts must be non-decreasing", m, b.m))
	}
	applied := m - b.m
	for _, e := range b.t.Edges[b.m:m] {
		b.apply(e)
	}
	b.m = m
	var tm int64
	if m > 0 {
		tm = b.t.Edges[m-1].Time
	}
	// Isolated nodes arrive by timestamp alone, so the snapshot may be wider
	// than the edge-touched prefix.
	n := b.t.nodesArrivedBy(tm)
	if n > b.n {
		b.grow(n)
	}
	np := pageCount(n)
	top := make([][][]NodeID, np)
	copy(top, b.pages[:np])
	g := &Graph{pages: top, n: n, edges: b.edges, Time: tm}
	b.emitGen++
	if obs.Enabled() {
		obs.GetCounter("graph/inc_snapshots").Inc()
		obs.GetCounter("graph/inc_edges_applied").Add(int64(applied))
	}
	return g
}

// grow extends the row space to n nodes; fresh rows are owned but their
// pages stay nil until first touched.
func (b *IncrementalBuilder) grow(n int) {
	for b.n < n {
		b.rowGen = append(b.rowGen, b.emitGen)
		b.n++
	}
	for np := pageCount(b.n); len(b.pages) < np; {
		b.pages = append(b.pages, nil)
		b.pageGen = append(b.pageGen, b.emitGen)
	}
}
