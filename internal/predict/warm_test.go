package predict

import (
	"slices"
	"testing"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/snapcache"
)

// TestWarmArtifactSet pins, per registry name, exactly which snapcache keys
// Warm populates on a full and on a partitioned snapshot. The table is the
// behaviour before Warm read the registry row (one hand-kept loop per
// snapshot kind): the degree-derived set always, the top-degree block on
// full snapshots only, and the row's own artifact unless the snapshot is
// partitioned and the row is not partition-safe. In particular BAA warms
// the log-degree table but not the naive Bayes census (ROADMAP item 1b).
func TestWarmArtifactSet(t *testing.T) {
	const (
		logDeg = "predict/logdeg"
		katz   = "predict/katz/r=32,it=40,beta=0.001,seed=1"
		katzSC = "predict/katzsc/L=64,len=4,beta=0.001,seed=1"
		rescal = "predict/rescal/r=16,it=4,lambda=10,seed=1"
	)
	base := map[bool][]string{
		false: {"degree-order", "csrview", "predict/wedgework", "block/48"},
		true:  {"degree-order", "csrview", "predict/wedgework"},
	}
	// own[name] = {on a full snapshot, on a partitioned one}.
	own := map[string][2]string{
		"CN": {}, "JC": {}, "PA": {}, "SP": {}, "LP": {}, "PPR": {}, "LRW": {}, "SRW": {}, "KatzExact": {},
		"Salton": {}, "Sorensen": {}, "HPI": {}, "HDI": {}, "LHN": {}, "nonsense": {},
		"AA": {logDeg, logDeg}, "RA": {logDeg, logDeg},
		"BCN": {logDeg}, "BAA": {logDeg}, "BRA": {logDeg},
		"Katz": {katz}, "KatzSC": {katzSC}, "Rescal": {rescal},
	}
	for _, alg := range registry {
		if _, ok := own[alg.Name()]; !ok {
			t.Errorf("registry row %q is missing from this table", alg.Name())
		}
	}
	// Every key any row may build: a key outside a name's expected set must
	// stay absent, and the miss count rules out keys outside this universe.
	universe := append(slices.Clone(base[false]), "predict/naivebayes", logDeg, katz, katzSC, rescal)
	withTelemetry(t, func() {
		for name, keys := range own {
			for i, partitioned := range []bool{false, true} {
				g := randomGraph(7, 300, 1400)
				if partitioned {
					g = graph.PartitionView(g, 100, 200)
				}
				want := slices.Clone(base[partitioned])
				if keys[i] != "" {
					want = append(want, keys[i])
				}
				misses := obs.GetCounter("snapcache/misses")
				before := misses.Value()
				Warm(g, []string{name}, DefaultOptions())
				if got := misses.Value() - before; got != int64(len(want)) {
					t.Errorf("%s partitioned=%v: Warm built %d artifacts, want %d", name, partitioned, got, len(want))
				}
				for _, key := range universe {
					built := true
					snapcache.For(g).Artifact(key, func() (any, error) { built = false; return nil, nil })
					if built != slices.Contains(want, key) {
						t.Errorf("%s partitioned=%v: artifact %q built = %v, want %v", name, partitioned, key, built, !built)
					}
				}
			}
		}
	})
}
