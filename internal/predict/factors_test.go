package predict

import (
	"testing"

	"linkpred/internal/linalg"
	"linkpred/internal/snapcache"
)

// TestLatentFactorsWorkerInvariance pins the factor builders themselves to
// bit-identical output at every worker count. The snapshot cache is dropped
// between counts so every run rebuilds from scratch — without the Reset the
// cache would hand back the first run's matrices and hide a divergence.
// This is the property that lets cache keys omit Options.Workers.
func TestLatentFactorsWorkerInvariance(t *testing.T) {
	g := randomGraph(3, 220, 1100)
	builders := []struct {
		name string
		run  func(workers int) []*linalg.Dense
	}{
		{"katz", func(w int) []*linalg.Dense {
			opt := DefaultOptions()
			opt.Workers = w
			vecs, f := katzFactors(g, opt)
			return []*linalg.Dense{vecs, {Rows: 1, Cols: len(f), Data: f}}
		}},
		{"katzsc", func(w int) []*linalg.Dense {
			opt := DefaultOptions()
			opt.Workers = w
			a, b := katzSCFactors(g, opt)
			return []*linalg.Dense{a, b}
		}},
		{"rescal", func(w int) []*linalg.Dense {
			opt := DefaultOptions()
			opt.Workers = w
			a, b := rescalFactors(g, opt)
			return []*linalg.Dense{a, b}
		}},
	}
	for _, b := range builders {
		snapcache.Reset()
		ref := b.run(1)
		for _, w := range []int{2, 4, 7} {
			snapcache.Reset()
			got := b.run(w)
			for fi := range ref {
				if len(got[fi].Data) != len(ref[fi].Data) {
					t.Fatalf("%s workers=%d: factor %d shape differs", b.name, w, fi)
				}
				for i := range ref[fi].Data {
					if got[fi].Data[i] != ref[fi].Data[i] {
						t.Fatalf("%s workers=%d: factor %d element %d = %v, want %v",
							b.name, w, fi, i, got[fi].Data[i], ref[fi].Data[i])
					}
				}
			}
		}
	}
	snapcache.Reset()
}

// TestFactorCacheSharesAcrossCalls asserts two calls against the same
// snapshot return the same matrices (pointer equality — one build).
func TestFactorCacheSharesAcrossCalls(t *testing.T) {
	snapcache.Reset()
	g := randomGraph(4, 120, 500)
	opt := DefaultOptions()
	a1, b1 := katzFactors(g, opt)
	a2, b2 := katzFactors(g, opt)
	if a1 != a2 || &b1[0] != &b2[0] {
		t.Error("katzFactors rebuilt for a cached snapshot")
	}
	// A different parameter set must not collide with the cached key.
	opt.KatzRank = 7
	a3, _ := katzFactors(g, opt)
	if a3 == a1 {
		t.Error("katzFactors with different rank returned the cached factors")
	}
	snapcache.Reset()
}
