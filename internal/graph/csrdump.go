package graph

import (
	"fmt"
	"sort"
)

// FromCSR builds a full snapshot over n nodes whose row u is
// cols[rowptr[u]:rowptr[u+1]] — the compressed-sparse-row form checkpoints
// store. Rows alias cols — callers loading a
// checkpoint from a memory-mapped buffer get a zero-copy graph, and must
// keep the buffer immutable and alive for the graph's lifetime. The
// structure is fully validated (monotone rowptr, sorted in-range rows, no
// self loops or duplicates, symmetry, entry count = 2*edges) so hostile
// input fails here instead of corrupting a sweep.
func FromCSR(n int, rowptr []int64, cols []NodeID, edges int, tm int64) (*Graph, error) {
	if n < 0 || edges < 0 {
		return nil, fmt.Errorf("graph: FromCSR negative dimensions (n=%d edges=%d)", n, edges)
	}
	if len(rowptr) != n+1 {
		return nil, fmt.Errorf("graph: FromCSR rowptr length %d, want %d", len(rowptr), n+1)
	}
	if rowptr[0] != 0 {
		return nil, fmt.Errorf("graph: FromCSR rowptr[0] = %d, want 0", rowptr[0])
	}
	if rowptr[n] != int64(len(cols)) {
		return nil, fmt.Errorf("graph: FromCSR rowptr[n] = %d, want %d", rowptr[n], len(cols))
	}
	if int64(len(cols)) != 2*int64(edges) {
		return nil, fmt.Errorf("graph: FromCSR %d entries for %d edges, want %d", len(cols), edges, 2*edges)
	}
	g := &Graph{pages: make([][][]NodeID, pageCount(n)), n: n, edges: edges, Time: tm}
	for u := 0; u < n; u++ {
		lo, hi := rowptr[u], rowptr[u+1]
		if lo > hi {
			return nil, fmt.Errorf("graph: FromCSR rowptr not monotone at %d (%d > %d)", u, lo, hi)
		}
		row := cols[lo:hi:hi]
		for i, v := range row {
			if int(v) < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: FromCSR row %d entry %d out of range", u, v)
			}
			if v == NodeID(u) {
				return nil, fmt.Errorf("graph: FromCSR self loop on node %d", u)
			}
			if i > 0 && row[i-1] >= v {
				return nil, fmt.Errorf("graph: FromCSR row %d not strictly increasing at entry %d", u, i)
			}
		}
		if len(row) > 0 {
			setRow(g.pages, u, row)
		}
	}
	// Symmetry: every entry must have its mirror, or degree-based scores and
	// wedge sweeps silently diverge from the trace they claim to snapshot.
	for u := 0; u < n; u++ {
		for _, v := range g.row(NodeID(u)) {
			row := g.row(v)
			i := sort.Search(len(row), func(i int) bool { return row[i] >= NodeID(u) })
			if i >= len(row) || row[i] != NodeID(u) {
				return nil, fmt.Errorf("graph: FromCSR edge (%d, %d) has no mirror entry", u, v)
			}
		}
	}
	return g, nil
}

// NewIncrementalBuilderFrom returns a builder seeded from an existing
// snapshot g at trace edge count m, positioned to continue applying edges
// m, m+1, ... of t. The builder shares g's rows copy-on-write: emitGen
// starts at 1 with all row/page generations at 0, so the first mutation of
// any row clones it — g (and any buffer its rows alias, e.g. a mapped
// checkpoint) is never written through. This is the recovery path's warm
// start: replaying a trace tail on top of a checkpoint snapshot instead of
// rebuilding from edge zero.
func NewIncrementalBuilderFrom(t *Trace, g *Graph, m int) *IncrementalBuilder {
	n := g.NumNodes()
	b := &IncrementalBuilder{t: t, m: m, n: n, edges: g.NumEdges(), emitGen: 1}
	b.pages = append([][][]NodeID(nil), g.pages...)
	b.pageGen = make([]int32, len(b.pages))
	b.rowGen = make([]int32, n)
	return b
}
