package snapcache

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
)

func pathGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, n-1)
	for i := 0; i < n-1; i++ {
		edges[i] = graph.Edge{U: graph.NodeID(i), V: graph.NodeID(i + 1), Time: int64(i)}
	}
	return graph.Build(n, edges)
}

func counterValue(name string) int64 {
	return obs.Snapshot().Counters[name]
}

func TestArtifactBuildsOncePerSnapshot(t *testing.T) {
	Reset()
	a := For(pathGraph(5))
	builds := 0
	get := func() (int, error) {
		v, err := a.Artifact("k", func() (any, error) {
			builds++
			return builds, nil
		})
		return v.(int), err
	}
	for i := 0; i < 3; i++ {
		v, err := get()
		if err != nil || v != 1 {
			t.Fatalf("call %d: v=%d err=%v", i, v, err)
		}
	}
	if builds != 1 {
		t.Fatalf("builder ran %d times", builds)
	}
}

func TestArtifactCachesError(t *testing.T) {
	Reset()
	a := For(pathGraph(3))
	builds := 0
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		_, err := a.Artifact("bad", func() (any, error) {
			builds++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if builds != 1 {
		t.Fatalf("failed builder retried: %d builds", builds)
	}
}

func TestForSharesAndDistinguishesGraphs(t *testing.T) {
	Reset()
	g1, g2 := pathGraph(4), pathGraph(4)
	if For(g1) != For(g1) {
		t.Fatal("same graph pointer should share artifacts")
	}
	if For(g1) == For(g2) {
		t.Fatal("distinct graph pointers must not share artifacts")
	}
}

func TestLRUEviction(t *testing.T) {
	Reset()
	prev := SetCapacity(2)
	defer SetCapacity(prev)
	g1, g2, g3 := pathGraph(3), pathGraph(3), pathGraph(3)
	a1 := For(g1)
	For(g2)
	a1b := For(g1) // touch g1 so g2 is the LRU victim
	if a1 != a1b {
		t.Fatal("resident snapshot rebuilt")
	}
	For(g3) // evicts g2
	if For(g1) != a1 {
		t.Fatal("g1 evicted despite being recently used")
	}
	// g2 must have been dropped: a fresh Artifacts set comes back.
	a2 := For(g2)
	if _, ok := a2.entries["probe"]; ok {
		t.Fatal("unexpected entries in fresh artifacts")
	}
}

func TestHitMissCounters(t *testing.T) {
	obs.Enable(true)
	defer obs.Enable(false)
	obs.Reset()
	Reset()
	a := For(pathGraph(6))
	view := a.CSRView()      // misses: the view and the degree order it is built over
	order := a.DegreeOrder() // hit: the view's build sorted the snapshot already
	a.CSRView()              // hit
	a.DegreeOrder()          // hit
	if got := counterValue("snapcache/misses"); got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}
	if got := counterValue("snapcache/hits"); got != 3 {
		t.Errorf("hits = %d, want 3", got)
	}
	if &view.Order[0] != &order[0] {
		t.Error("CSRView sorted its own order instead of sharing DegreeOrder's")
	}
}

func TestDegreeOrderAndBlock(t *testing.T) {
	Reset()
	// Star plus pendant: degrees 0:3, 1:1, 2:1, 3:2, 4:1.
	g := graph.Build(5, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 3, V: 4},
	})
	a := For(g)
	order := a.DegreeOrder()
	want := []graph.NodeID{0, 3, 1, 2, 4}
	for i, u := range want {
		if order[i] != u {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	blk := a.Block(2)
	if len(blk.Order) != 2 || blk.Order[0] != 0 || blk.Order[1] != 3 {
		t.Fatalf("block order = %v", blk.Order)
	}
	if !blk.In[0] || !blk.In[3] || blk.In[1] {
		t.Fatalf("block mask = %v", blk.In)
	}
	if blk.Pos[0] != 0 || blk.Pos[3] != 1 || blk.Pos[2] != -1 {
		t.Fatalf("block pos = %v", blk.Pos)
	}
	if a.Block(99).Order == nil || len(a.Block(99).Order) != 5 {
		t.Fatal("oversized block should clamp to n")
	}
	if len(a.Block(-1).Order) != 0 {
		t.Fatal("negative block size should clamp to 0")
	}
}

func TestConcurrentArtifactAccess(t *testing.T) {
	Reset()
	g := pathGraph(50)
	var wg sync.WaitGroup
	vals := make([]any, 16)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _ := For(g).Artifact(fmt.Sprintf("k%d", i%4), func() (any, error) {
				return new(int), nil
			})
			vals[i] = v
		}(i)
	}
	wg.Wait()
	for i := range vals {
		if vals[i] != vals[i%4] {
			t.Fatalf("key k%d returned distinct values", i%4)
		}
	}
}
