// Package csr provides the degree-ordered adjacency view behind the
// candidate-generation engine: a degree-descending relabeling of a snapshot
// (rank 0 = highest degree, the canonical supernode order) plus dense
// neighbor bitsets for the hub block — the top-ranked nodes whose adjacency
// is large enough that bit tests and word-wise intersection beat sorted-list
// merging.
//
// A snapshot's adjacency slices are already CSR-shaped (sorted, contiguous
// per node); what this layer adds is the rank permutation and the hub-block
// bitsets. Bit positions are ORIGINAL node IDs, deliberately: every
// float-accumulating scoring path in this repository folds witness weights
// in ascending original-ID order to stay bit-identical to its reference
// implementation, and iterating a bitset row ascending preserves exactly
// that order. A rank-space bit layout would be denser for hub–hub rows but
// would reorder float folds and break the determinism contract.
//
// Views are deterministic functions of the graph and the budget, safe for
// concurrent read-only use, and are cached per snapshot via
// internal/snapcache.
package csr

import (
	"math/bits"

	"linkpred/internal/graph"
)

// DefaultHubBudget bounds the hub-block bitset memory per snapshot, in
// bytes. 32 MiB holds ~2500 hub rows at 10⁵ nodes and ~250 at 10⁶ — in a
// power-law graph that covers the supernodes that dominate intersection
// cost while staying far below the adjacency itself.
const DefaultHubBudget = 32 << 20

// MinHubDegree is the degree below which a node never gets a bitset row:
// merging a short sorted list is already cheap, so a row would spend a full
// n-bit allocation to accelerate nothing.
const MinHubDegree = 64

// View is the degree-ordered relabeling and hub block of one snapshot.
type View struct {
	// Order maps rank -> original ID: degree descending, ties by ascending
	// ID — the same canonical supernode order as snapcache.DegreeOrder.
	Order []graph.NodeID
	// Rank maps original ID -> rank (inverse of Order).
	Rank []int32
	// Hubs is the number of leading ranks with bitset rows.
	Hubs int

	words int
	bits  []uint64
}

// Bits is one hub's dense neighbor set. Bit positions are original node
// IDs; iterating set bits ascending yields neighbors in ascending ID order.
type Bits []uint64

// Build constructs the view for g over order — every node ID, degree
// descending, ties by ascending ID; snapcache passes its cached DegreeOrder,
// so a snapshot is sorted once — spending at most hubBudget bytes on hub
// bitset rows (DefaultHubBudget when <= 0). The view aliases order, which
// must not be modified afterwards. The result depends only on g and the
// budget.
func Build(g *graph.Graph, order []graph.NodeID, hubBudget int) *View {
	if hubBudget <= 0 {
		hubBudget = DefaultHubBudget
	}
	n := g.NumNodes()
	v := &View{
		Order: order,
		Rank:  make([]int32, n),
		words: (n + 63) / 64,
	}
	for r, u := range v.Order {
		v.Rank[u] = int32(r)
	}
	// Hub rows: as many leading ranks as the budget allows, stopping at the
	// first node too small to profit from a dense row.
	hubs := 0
	if v.words > 0 {
		hubs = hubBudget / (v.words * 8)
	}
	if hubs > n {
		hubs = n
	}
	for hubs > 0 && g.Degree(v.Order[hubs-1]) < MinHubDegree {
		hubs--
	}
	v.Hubs = hubs
	if hubs > 0 {
		v.bits = make([]uint64, hubs*v.words)
		for r := 0; r < hubs; r++ {
			row := v.bits[r*v.words : (r+1)*v.words]
			for _, w := range g.Neighbors(v.Order[r]) {
				row[w>>6] |= 1 << (uint(w) & 63)
			}
		}
	}
	return v
}

// Words returns the per-row word count of the hub bitsets.
func (v *View) Words() int { return v.words }

// IsHub reports whether u has a bitset row.
func (v *View) IsHub(u graph.NodeID) bool { return int(v.Rank[u]) < v.Hubs }

// HubBits returns u's neighbor bitset, or nil when u is not a hub. The row
// is shared and must not be modified.
func (v *View) HubBits(u graph.NodeID) Bits {
	r := int(v.Rank[u])
	if r >= v.Hubs {
		return nil
	}
	return Bits(v.bits[r*v.words : (r+1)*v.words])
}

// Has reports whether node id is set.
func (b Bits) Has(id graph.NodeID) bool {
	return b[id>>6]&(1<<(uint(id)&63)) != 0
}

// AndCount returns the population count of a AND b — the common-neighbor
// count of two hubs — without materializing the intersection.
func AndCount(a, b Bits) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// AndIter calls fn for every node set in both a and b, in ascending ID
// order — the witness order every float-accumulating scorer requires.
func AndIter(a, b Bits, fn func(graph.NodeID)) {
	for i, w := range a {
		w &= b[i]
		base := graph.NodeID(i << 6)
		for w != 0 {
			fn(base + graph.NodeID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}
