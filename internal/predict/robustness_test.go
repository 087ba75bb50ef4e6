package predict

import (
	"testing"

	"linkpred/internal/graph"
)

// TestDegenerateGraphs runs every algorithm (core + extensions) against the
// pathological inputs a library user will eventually feed it: empty graph,
// single node, single edge, star, complete graph (no unconnected pairs),
// and a graph of only isolated nodes. Nothing may panic; predictions must
// respect the invariants.
func TestDegenerateGraphs(t *testing.T) {
	complete := func(n int) *graph.Graph {
		var edges []graph.Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)})
			}
		}
		return graph.Build(n, edges)
	}
	cases := map[string]*graph.Graph{
		"empty":       graph.Build(0, nil),
		"single node": graph.Build(1, nil),
		"single edge": graph.Build(2, []graph.Edge{{U: 0, V: 1}}),
		"isolated":    graph.Build(5, nil),
		"star":        graph.Build(5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}}),
		"complete":    complete(5),
		"two cliques": graph.Build(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5}}),
	}
	opt := DefaultOptions()
	opt.RandomCandidates = 50
	for name, g := range cases {
		for _, alg := range registry {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s on %s graph panicked: %v", alg.Name(), name, r)
					}
				}()
				for _, k := range []int{0, 1, 3, 100} {
					pred := alg.Predict(g, k, opt)
					if len(pred) > k {
						t.Errorf("%s on %s: %d predictions for k=%d", alg.Name(), name, len(pred), k)
					}
					for _, p := range pred {
						if g.HasEdge(p.U, p.V) || p.U == p.V {
							t.Errorf("%s on %s: invalid prediction %+v", alg.Name(), name, p)
						}
					}
				}
				// ScorePairs on whatever pairs exist.
				if g.NumNodes() >= 2 {
					pairs := []Pair{{U: 0, V: 1}}
					if s := alg.ScorePairs(g, pairs, opt); len(s) != 1 {
						t.Errorf("%s on %s: score length %d", alg.Name(), name, len(s))
					}
				}
				if s := alg.ScorePairs(g, nil, opt); len(s) != 0 {
					t.Errorf("%s on %s: nonempty scores for no pairs", alg.Name(), name)
				}
			}()
		}
	}
}

// TestOptionValidation ensures nonsense options are rejected loudly rather
// than producing silent garbage.
func TestOptionValidation(t *testing.T) {
	g := kite()
	bad := []Options{
		func() Options { o := DefaultOptions(); o.PPRAlpha = 0; return o }(),
		func() Options { o := DefaultOptions(); o.PPRAlpha = 1.5; return o }(),
		func() Options { o := DefaultOptions(); o.KatzBeta = -1; return o }(),
		func() Options { o := DefaultOptions(); o.LPEpsilon = -0.1; return o }(),
	}
	for i, opt := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad options %d accepted: %+v", i, opt)
				}
			}()
			CN.Predict(g, 3, opt)
		}()
	}
}

// TestZeroValueOptionDefaults verifies every algorithm falls back to sane
// internal defaults when optional knobs are zero.
func TestZeroValueOptionDefaults(t *testing.T) {
	g := randomGraph(31, 30, 80)
	opt := Options{Seed: 1, PPRAlpha: 0.15} // everything else zero
	for _, alg := range All() {
		if alg.Name() == "SP" || alg.Name() == "LP" {
			continue // LPEpsilon=0 and SPMaxDepth=0 are legitimate settings
		}
		pred := alg.Predict(g, 5, opt)
		if len(pred) == 0 {
			t.Errorf("%s with zero-value options made no predictions", alg.Name())
		}
	}
}
