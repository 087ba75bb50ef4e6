// Package snapcache is the per-snapshot artifact cache shared by every
// algorithm scoring one evaluation cut. A snapshot's degree-descending
// order, its degree-ordered hub view, the top-degree block mask, and
// algorithm-owned derived artifacts (log-degree tables, latent factor
// matrices) are built lazily once and shared by all subsequent algorithms,
// worker counts, and Predict/ScorePairs calls against the same *graph.Graph.
//
// Correctness constraints:
//
//   - Keys identify graphs by pointer. The cache holds a strong reference to
//     every resident graph, so a pointer can never be recycled while its
//     artifacts are live; eviction drops the graph and all artifacts
//     together.
//   - Artifact builders must be deterministic functions of the graph and the
//     key. Callers encode every parameter that changes the result (rank,
//     iterations, seed, ...) into the key; worker counts are deliberately
//     excluded because every builder in this repository is bit-identical at
//     any worker count (DESIGN.md §8).
//   - Values are shared read-only across goroutines after construction.
//
// Telemetry: snapcache/{hits,misses} counters and the snapcache/build_ns
// histogram make sharing visible in -metrics-out dumps.
package snapcache

import (
	"cmp"
	"container/list"
	"fmt"
	"slices"
	"sync"

	"linkpred/internal/csr"
	"linkpred/internal/graph"
	"linkpred/internal/obs"
)

// DefaultCapacity bounds resident snapshots. Eight covers every concurrent
// sweep pattern in this repository (experiments pins task engines to one
// worker and bounds in-flight tasks) while keeping worst-case factor-matrix
// memory modest.
const DefaultCapacity = 8

// The per-lookup telemetry handles, resolved once.
var (
	hits    = obs.GetCounter("snapcache/hits")
	misses  = obs.GetCounter("snapcache/misses")
	buildNS = obs.GetHistogram("snapcache/build_ns")
)

var global = struct {
	sync.Mutex
	capacity int
	lru      list.List                      // of *Artifacts, front = most recent
	index    map[*graph.Graph]*list.Element // graph -> lru element
}{capacity: DefaultCapacity}

// For returns the artifact set of g, creating it on first use and marking it
// most recently used. The least recently used snapshot is evicted beyond
// capacity.
func For(g *graph.Graph) *Artifacts {
	global.Lock()
	defer global.Unlock()
	if global.index == nil {
		global.index = make(map[*graph.Graph]*list.Element)
	}
	if el, ok := global.index[g]; ok {
		global.lru.MoveToFront(el)
		return el.Value.(*Artifacts)
	}
	a := &Artifacts{g: g, entries: make(map[string]*entry)}
	global.index[g] = global.lru.PushFront(a)
	for global.lru.Len() > global.capacity {
		el := global.lru.Back()
		global.lru.Remove(el)
		delete(global.index, el.Value.(*Artifacts).g)
		obs.GetCounter("snapcache/evictions").Inc()
	}
	return a
}

// Reset drops every cached snapshot. Intended for tests and long-lived
// processes that want a memory floor between phases.
func Reset() {
	global.Lock()
	defer global.Unlock()
	global.lru.Init()
	global.index = nil
}

// SetCapacity changes the resident-snapshot bound (minimum one) and returns
// the previous value. Shrinking evicts oldest-first on the next For call.
func SetCapacity(n int) int {
	global.Lock()
	defer global.Unlock()
	prev := global.capacity
	if n < 1 {
		n = 1
	}
	global.capacity = n
	return prev
}

// Artifacts is one snapshot's lazily built shared state.
type Artifacts struct {
	g       *graph.Graph
	mu      sync.Mutex
	entries map[string]*entry
}

// entry decouples registration from construction: the map lock is held only
// to claim the key, and the per-entry once lets slow builds (eigensolves)
// run without blocking readers of other artifacts.
type entry struct {
	once sync.Once
	val  any
	err  error
}

// Graph returns the snapshot these artifacts belong to.
func (a *Artifacts) Graph() *graph.Graph { return a.g }

// Artifact returns the value under key, building it at most once per
// snapshot via build. Concurrent callers for the same key block on the
// first builder; other keys proceed independently. The error, like the
// value, is cached.
func (a *Artifacts) Artifact(key string, build func() (any, error)) (any, error) {
	a.mu.Lock()
	e, hit := a.entries[key]
	if !hit {
		e = &entry{}
		a.entries[key] = e
	}
	a.mu.Unlock()
	if hit {
		hits.Inc()
	}
	e.once.Do(func() {
		start := obs.Start()
		misses.Inc()
		e.val, e.err = build()
		buildNS.Since(start)
	})
	return e.val, e.err
}

// CSRView returns the snapshot's degree-ordered relabeling and hub-block
// bitsets (csr.Build with the default budget), building them on first use.
// The view is shared read-only; its Order is the DegreeOrder slice itself.
func (a *Artifacts) CSRView() *csr.View {
	v, _ := a.Artifact("csrview", func() (any, error) {
		return csr.Build(a.g, a.DegreeOrder(), csr.DefaultHubBudget), nil
	})
	return v.(*csr.View)
}

// DegreeOrder returns all node IDs sorted by descending degree, ties broken
// by ascending ID — the canonical supernode order shared by the top-degree
// candidate block, PA's frontier walk, and landmark selection. The slice is
// shared and must not be modified.
func (a *Artifacts) DegreeOrder() []graph.NodeID {
	v, _ := a.Artifact("degree-order", func() (any, error) {
		n := a.g.NumNodes()
		order := make([]graph.NodeID, n)
		for i := range order {
			order[i] = graph.NodeID(i)
		}
		slices.SortStableFunc(order, func(x, y graph.NodeID) int {
			if c := cmp.Compare(a.g.Degree(y), a.g.Degree(x)); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
		return order, nil
	})
	return v.([]graph.NodeID)
}

// Block is the top-degree candidate block of one snapshot: the size
// highest-degree nodes in canonical order, a membership mask, and each
// member's block position (Pos[v] < 0 for non-members).
type Block struct {
	Order []graph.NodeID
	In    []bool
	Pos   []int32
}

// Block returns the top-degree block of the given size, clamped to the node
// count. All fields are shared and must not be modified.
func (a *Artifacts) Block(size int) *Block {
	if n := a.g.NumNodes(); size > n {
		size = n
	}
	if size < 0 {
		size = 0
	}
	v, _ := a.Artifact(fmt.Sprintf("block/%d", size), func() (any, error) {
		order := a.DegreeOrder()
		b := &Block{
			Order: order[:size],
			In:    make([]bool, len(order)),
			Pos:   make([]int32, len(order)),
		}
		for i := range b.Pos {
			b.Pos[i] = -1
		}
		for i, u := range b.Order {
			b.In[u] = true
			b.Pos[u] = int32(i)
		}
		return b, nil
	})
	return v.(*Block)
}
