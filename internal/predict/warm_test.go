package predict

import (
	"slices"
	"testing"

	"linkpred/internal/obs"
	"linkpred/internal/snapcache"
)

// TestWarmArtifactSet pins, per registry name, exactly which snapcache keys
// Warm populates: the degree-derived set and the top-degree block always,
// plus the row's own artifact. In particular BAA warms the log-degree table
// but not the naive Bayes census (ROADMAP item 1b).
func TestWarmArtifactSet(t *testing.T) {
	const (
		logDeg = "predict/logdeg"
		katz   = "predict/katz/r=32,it=40,beta=0.001,seed=1"
		katzSC = "predict/katzsc/L=64,len=4,beta=0.001,seed=1"
		rescal = "predict/rescal/r=16,it=4,lambda=10,seed=1"
	)
	base := []string{"degree-order", "csrview", "predict/wedgework", "block/48"}
	own := map[string]string{
		"CN": "", "JC": "", "PA": "", "SP": "", "LP": "", "PPR": "", "LRW": "", "SRW": "", "KatzExact": "",
		"Salton": "", "Sorensen": "", "HPI": "", "HDI": "", "LHN": "", "nonsense": "",
		"AA": logDeg, "RA": logDeg, "BCN": logDeg, "BAA": logDeg, "BRA": logDeg,
		"Katz": katz, "KatzSC": katzSC, "Rescal": rescal,
	}
	for _, alg := range registry {
		if _, ok := own[alg.Name()]; !ok {
			t.Errorf("registry row %q is missing from this table", alg.Name())
		}
	}
	// Every key any row may build: a key outside a name's expected set must
	// stay absent, and the miss count rules out keys outside this universe.
	universe := append(slices.Clone(base), "predict/naivebayes", logDeg, katz, katzSC, rescal)
	withTelemetry(t, func() {
		for name, key := range own {
			g := randomGraph(7, 300, 1400)
			want := slices.Clone(base)
			if key != "" {
				want = append(want, key)
			}
			misses := obs.GetCounter("snapcache/misses")
			before := misses.Value()
			Warm(g, []string{name}, DefaultOptions())
			if got := misses.Value() - before; got != int64(len(want)) {
				t.Errorf("%s: Warm built %d artifacts, want %d", name, got, len(want))
			}
			for _, key := range universe {
				built := true
				snapcache.For(g).Artifact(key, func() (any, error) { built = false; return nil, nil })
				if built != slices.Contains(want, key) {
					t.Errorf("%s: artifact %q built = %v, want %v", name, key, built, !built)
				}
			}
		}
	})
}
