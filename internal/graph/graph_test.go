package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func mkEdges(pairs ...[2]NodeID) []Edge {
	es := make([]Edge, len(pairs))
	for i, p := range pairs {
		es[i] = Edge{U: p[0], V: p[1], Time: int64(i)}
	}
	return es
}

func TestBuildBasic(t *testing.T) {
	g := Build(5, mkEdges([2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 0}, [2]NodeID{3, 4}))
	if got := g.NumNodes(); got != 5 {
		t.Fatalf("NumNodes = %d, want 5", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Fatalf("NumEdges = %d, want 4", got)
	}
	if got := g.Degree(0); got != 2 {
		t.Errorf("Degree(0) = %d, want 2", got)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Errorf("HasEdge(0,1) should hold in both directions")
	}
	if g.HasEdge(0, 3) {
		t.Errorf("HasEdge(0,3) should be false")
	}
	if g.Time != 3 {
		t.Errorf("Time = %d, want 3", g.Time)
	}
}

func TestBuildDedupAndSelfLoops(t *testing.T) {
	g := Build(3, []Edge{
		{U: 0, V: 1, Time: 1},
		{U: 1, V: 0, Time: 2},
		{U: 0, V: 1, Time: 3},
		{U: 2, V: 2, Time: 4},
	})
	if got := g.NumEdges(); got != 1 {
		t.Fatalf("NumEdges = %d, want 1 after dedup and self-loop removal", got)
	}
	if got := g.Degree(2); got != 0 {
		t.Errorf("Degree(2) = %d, want 0", got)
	}
}

func TestCommonNeighbors(t *testing.T) {
	// Star: 0 connected to 1..4; 5 connected to 1,2.
	g := Build(6, mkEdges(
		[2]NodeID{0, 1}, [2]NodeID{0, 2}, [2]NodeID{0, 3}, [2]NodeID{0, 4},
		[2]NodeID{5, 1}, [2]NodeID{5, 2},
	))
	cn := g.CommonNeighbors(0, 5)
	want := []NodeID{1, 2}
	if !reflect.DeepEqual(cn, want) {
		t.Fatalf("CommonNeighbors(0,5) = %v, want %v", cn, want)
	}
	if got := g.CountCommonNeighbors(0, 5); got != 2 {
		t.Errorf("CountCommonNeighbors = %d, want 2", got)
	}
	if got := g.CountCommonNeighbors(3, 4); got != 1 {
		t.Errorf("CountCommonNeighbors(3,4) = %d, want 1 (node 0)", got)
	}
}

func TestUnconnectedPairs(t *testing.T) {
	g := Build(4, mkEdges([2]NodeID{0, 1}, [2]NodeID{2, 3}))
	// C(4,2)=6 pairs, 2 connected.
	if got := g.UnconnectedPairs(); got != 4 {
		t.Fatalf("UnconnectedPairs = %d, want 4", got)
	}
}

// Property: HasEdge agrees with a brute-force map for random graphs, and
// degrees sum to twice the edge count.
func TestGraphInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := rng.Intn(3 * n)
		edges := make([]Edge, m)
		truth := map[[2]NodeID]bool{}
		for i := range edges {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			edges[i] = Edge{U: u, V: v, Time: int64(i)}
			if u != v {
				a, b := u, v
				if a > b {
					a, b = b, a
				}
				truth[[2]NodeID{a, b}] = true
			}
		}
		g := Build(n, edges)
		if g.NumEdges() != len(truth) {
			return false
		}
		degSum := 0
		for u := 0; u < n; u++ {
			degSum += g.Degree(NodeID(u))
			if !sort.SliceIsSorted(g.Neighbors(NodeID(u)), func(i, j int) bool {
				return g.Neighbors(NodeID(u))[i] < g.Neighbors(NodeID(u))[j]
			}) {
				return false
			}
		}
		if degSum != 2*g.NumEdges() {
			return false
		}
		for u := NodeID(0); int(u) < n; u++ {
			for v := u + 1; int(v) < n; v++ {
				if g.HasEdge(u, v) != truth[[2]NodeID{u, v}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: CommonNeighbors is symmetric and its length matches
// CountCommonNeighbors.
func TestCommonNeighborsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		var edges []Edge
		for i := 0; i < 4*n; i++ {
			edges = append(edges, Edge{U: NodeID(rng.Intn(n)), V: NodeID(rng.Intn(n)), Time: int64(i)})
		}
		g := Build(n, edges)
		for trial := 0; trial < 20; trial++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			uv := g.CommonNeighbors(u, v)
			vu := g.CommonNeighbors(v, u)
			if !reflect.DeepEqual(uv, vu) {
				return false
			}
			if len(uv) != g.CountCommonNeighbors(u, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func testTrace() *Trace {
	return &Trace{
		Name:    "test",
		Arrival: []int64{0, 0, 5, 10, 20, 30},
		Edges: []Edge{
			{U: 0, V: 1, Time: 1},
			{U: 1, V: 2, Time: 6},
			{U: 2, V: 3, Time: 12},
			{U: 0, V: 3, Time: 15},
			{U: 3, V: 4, Time: 22},
			{U: 4, V: 5, Time: 31},
		},
	}
}

func TestTraceValidate(t *testing.T) {
	tr := testTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := testTrace()
	bad.Edges[2].Time = 0
	if err := bad.Validate(); err == nil {
		t.Error("out-of-order trace accepted")
	}
	bad2 := testTrace()
	bad2.Edges[0].V = 99
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	bad3 := testTrace()
	bad3.Edges[0].V = bad3.Edges[0].U
	if err := bad3.Validate(); err == nil {
		t.Error("self loop accepted")
	}
}

func TestSnapshotAtEdge(t *testing.T) {
	tr := testTrace()
	g := tr.SnapshotAtEdge(2)
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	// Last included edge is at time 6; nodes 0,1,2 arrived by then.
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", g.NumNodes())
	}
	if g.Time != 6 {
		t.Errorf("time = %d, want 6", g.Time)
	}
	full := tr.SnapshotAtEdge(100)
	if full.NumEdges() != 6 || full.NumNodes() != 6 {
		t.Errorf("full snapshot = %v", full)
	}
}

func TestSnapshotAtTime(t *testing.T) {
	tr := testTrace()
	g := tr.SnapshotAtTime(12)
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	if g.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4 (arrivals 0,0,5,10)", g.NumNodes())
	}
}

func TestCutsAndSequence(t *testing.T) {
	tr := testTrace()
	cuts := tr.Cuts(2)
	if len(cuts) != 3 {
		t.Fatalf("cuts = %v, want 3", cuts)
	}
	for i, c := range cuts {
		if c.EdgeCount != 2*(i+1) {
			t.Errorf("cut %d EdgeCount = %d", i, c.EdgeCount)
		}
	}
	gs := tr.Sequence(2)
	if len(gs) != 3 {
		t.Fatalf("sequence length = %d", len(gs))
	}
	for i, g := range gs {
		if g.NumEdges() != 2*(i+1) {
			t.Errorf("snapshot %d edges = %d, want %d", i, g.NumEdges(), 2*(i+1))
		}
	}
	newE := tr.NewEdgesBetween(cuts[0], cuts[1])
	if len(newE) != 2 || newE[0].Time != 12 {
		t.Errorf("NewEdgesBetween = %v", newE)
	}
	if got := tr.Cuts(0); got != nil {
		t.Errorf("Cuts(0) = %v, want nil", got)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := testTrace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestTraceSort(t *testing.T) {
	tr := &Trace{
		Name:    "unsorted",
		Arrival: make([]int64, 4),
		Edges: []Edge{
			{U: 3, V: 2, Time: 10},
			{U: 1, V: 0, Time: 5},
			{U: 2, V: 1, Time: 7},
		},
	}
	s := tr.Sort()
	if err := s.Validate(); err != nil {
		t.Fatalf("sorted trace invalid: %v", err)
	}
	if len(s.Edges) != 3 || s.Edges[0].Time != 5 {
		t.Fatalf("edges = %+v", s.Edges)
	}
	// First edge (time 5) touches original nodes 1,0 → new IDs 0,1.
	if s.Edges[0].U != 0 || s.Edges[0].V != 1 {
		t.Errorf("first edge remap = %+v", s.Edges[0])
	}
	for i := 1; i < len(s.Arrival); i++ {
		if s.Arrival[i] < s.Arrival[i-1] {
			t.Errorf("arrivals not monotone: %v", s.Arrival)
		}
	}
}

// Property: trace binary round trip is lossless for random traces.
func TestTraceRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		arr := make([]int64, n)
		for i := 1; i < n; i++ {
			arr[i] = arr[i-1] + int64(rng.Intn(5))
		}
		var edges []Edge
		tm := int64(0)
		for i := 0; i < rng.Intn(40); i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			tm += int64(rng.Intn(3))
			// Edges may not predate their endpoints' arrival (Validate
			// rejects such traces since the fuzz hardening: they would make
			// nodesArrivedBy cut a snapshot below an endpoint and panic).
			if a := max(arr[u], arr[v]); a > tm {
				tm = a
			}
			edges = append(edges, Edge{U: u, V: v, Time: tm})
		}
		tr := &Trace{Name: "q", Arrival: arr, Edges: edges}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		if len(got.Edges) != len(tr.Edges) || got.NumNodes() != tr.NumNodes() {
			return false
		}
		if len(tr.Edges) == 0 {
			return true
		}
		return reflect.DeepEqual(got.Edges, tr.Edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
