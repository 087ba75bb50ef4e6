package predict

import (
	"linkpred/internal/graph"
	"linkpred/internal/linalg"
	"linkpred/internal/snapcache"
)

// This file binds the algorithms to the per-snapshot artifact cache
// (internal/snapcache): the log-degree table and latent factor matrices
// are built once per snapshot and shared across algorithms,
// worker counts, and Predict/ScorePairs calls. Every cached artifact is a
// deterministic, worker-count-invariant function of the graph and the
// parameters encoded in its key, so cache hits can never change output —
// the worker-invariance suite exercises both cold and warm paths.

// logDegTable returns the shared per-node nonNegLog(deg) table used by the
// log-weighted witnesses (AA, BAA). Values are exactly nonNegLog of the
// degree, so table lookups keep the fused kernels bit-identical to the
// reference folds.
func logDegTable(g *graph.Graph) []float64 {
	v, _ := snapcache.For(g).Artifact("predict/logdeg", func() (any, error) {
		t := make([]float64, g.NumNodes())
		for i := range t {
			t[i] = nonNegLog(float64(g.Degree(graph.NodeID(i))))
		}
		return t, nil
	})
	return v.([]float64)
}

// factorPair caches a two-matrix factorization (Katz scaled/raw, Rescal
// XR/X, KatzSC P/C) under a key that encodes every parameter influencing
// the result. Worker counts are excluded by design: the factor builds are
// bit-identical at any worker count (pinned by TestLatentFactorsWorkerInvariance),
// so a factor computed by one engine configuration is valid for all.
func factorPair(g *graph.Graph, key string, build func() (*linalg.Dense, *linalg.Dense)) (*linalg.Dense, *linalg.Dense) {
	v, _ := snapcache.For(g).Artifact(key, func() (any, error) {
		a, b := build()
		return [2]*linalg.Dense{a, b}, nil
	})
	f := v.([2]*linalg.Dense)
	return f[0], f[1]
}
