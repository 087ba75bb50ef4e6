package predict

import (
	"fmt"
	"runtime"
	"testing"

	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/liveeval"
	"linkpred/internal/obs"
)

// benchGraph is a mid-size Renren-like snapshot shared by the package
// microbenchmarks.
func benchGraph(b *testing.B) (*graph.Graph, int) {
	b.Helper()
	cfg := gen.Renren(1).Scaled(0.2)
	tr := gen.MustGenerate(cfg)
	delta := gen.DefaultDelta(cfg)
	cuts := tr.Cuts(delta)
	g := tr.SnapshotAtEdge(cuts[len(cuts)-2].EdgeCount)
	return g, delta
}

// BenchmarkPredictScorePairs measures batch scoring throughput per
// algorithm over a fixed 2-hop candidate sample.
func BenchmarkPredictScorePairs(b *testing.B) {
	g, _ := benchGraph(b)
	var pairs []Pair
	twoHopPairs(g, func(u, v graph.NodeID) {
		if len(pairs) < 5000 {
			pairs = append(pairs, Pair{U: u, V: v})
		}
	})
	opt := DefaultOptions()
	for _, alg := range All() {
		b.Run(alg.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scores := alg.ScorePairs(g, pairs, opt)
				if len(scores) != len(pairs) {
					b.Fatal("score length mismatch")
				}
			}
		})
	}
}

// benchWorkerCounts are the engine configurations compared by the parallel
// benchmarks: serial, a fixed multi-worker count, and the host's capacity.
func benchWorkerCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// BenchmarkPredictParallel measures full top-k prediction per algorithm at
// each worker count. Speedups only materialize with GOMAXPROCS > 1; the
// determinism suite proves the output is identical either way.
func BenchmarkPredictParallel(b *testing.B) {
	g, _ := benchGraph(b)
	k := 200
	for _, alg := range registry {
		for _, w := range benchWorkerCounts() {
			opt := DefaultOptions()
			opt.Workers = w
			b.Run(fmt.Sprintf("%s/workers=%d", alg.Name(), w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if len(alg.Predict(g, k, opt)) == 0 {
						b.Fatal("no predictions")
					}
				}
			})
		}
	}
}

// BenchmarkPredictTelemetry quantifies the telemetry tax on the hottest
// path: CN.Predict with collection disabled (the default; the off/disabled
// delta is the <2% overhead budget DESIGN.md §6 commits to), enabled, and
// enabled with the full serving-side liveeval hook — recording every
// prediction into a prequential engine and scoring a stream of ingested
// edges against it, the way internal/serve wires it. The liveeval mode
// exists so the accuracy loop's cost is measured against the same baseline
// as the rest of the telemetry budget.
func BenchmarkPredictTelemetry(b *testing.B) {
	g, _ := benchGraph(b)
	opt := DefaultOptions()
	opt.Workers = 4
	for _, mode := range []struct {
		name     string
		enabled  bool
		liveeval bool
	}{{"disabled", false, false}, {"enabled", true, false}, {"enabled-liveeval", true, true}} {
		b.Run(mode.name, func(b *testing.B) {
			obs.Reset()
			obs.Enable(mode.enabled)
			defer func() {
				obs.Enable(false)
				obs.Reset()
			}()
			var eval *liveeval.Engine
			if mode.liveeval {
				eval = liveeval.New(liveeval.Config{TopK: 128, Ring: 4, Window: 1024, HalfLife: 256})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pairs := CN.Predict(g, 200, opt)
				if len(pairs) == 0 {
					b.Fatal("no predictions")
				}
				if eval != nil {
					ranked := make([][2]graph.NodeID, len(pairs))
					for j, p := range pairs {
						ranked[j] = [2]graph.NodeID{p.U, p.V}
					}
					eval.Record("CN", int64(i), 0, i*64, ranked)
					for e := 0; e < 64; e++ {
						eval.ObserveEdge(graph.NodeID(e%500), graph.NodeID(500+e), i*64+e)
					}
				}
			}
		})
	}
}

// BenchmarkTwoHopEnumeration measures the candidate sweep itself.
func BenchmarkTwoHopEnumeration(b *testing.B) {
	g, _ := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		twoHopPairs(g, func(u, v graph.NodeID) { count++ })
		if count == 0 {
			b.Fatal("no 2-hop pairs")
		}
	}
}

// BenchmarkTopKSelection measures the bounded heap under heavy churn.
func BenchmarkTopKSelection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		top := newTopK(500, 1)
		for v := graph.NodeID(1); v < 100000; v++ {
			top.Add(0, v, float64(v%997))
		}
		if len(top.Result()) != 500 {
			b.Fatal("selection size wrong")
		}
	}
}
