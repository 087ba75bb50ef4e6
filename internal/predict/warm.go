package predict

import (
	"linkpred/internal/graph"
	"linkpred/internal/snapcache"
)

// Warm prebuilds the per-snapshot cached artifacts the named algorithms
// read on their scoring paths: the degree-derived set every algorithm
// shares, the top-degree candidate block, and whatever each name's registry
// row declares through its warm hook — the log-degree table for the
// witness-weighted local metrics, the latent factor matrices (Katz
// eigensolve, KatzSC landmark embedding, Rescal ALS) under the parameter set
// opt encodes; path and walk algorithms keep per-source scratch, not
// snapshot artifacts.
//
// The serving layer calls it off the request path right after a snapshot is
// published, so the first query against the new snapshot pays a cache hit
// instead of an eigensolve. Warming is pure cache population through
// snapcache — it cannot change any later result (the builders are
// deterministic functions of the graph and the key) and is safe to run
// concurrently with scoring against the same or other snapshots. Unknown
// names are ignored so callers can pass a serving allowlist verbatim.
func Warm(g *graph.Graph, names []string, opt Options) {
	if g == nil || g.NumNodes() == 0 {
		return
	}
	// Artifact builds must not inherit a request deadline (see Options.Ctx).
	opt.Ctx = nil
	arts := snapcache.For(g)
	// The degree order, the degree-ordered view with hub bitsets (which backs
	// the local metrics' batch probes and naive Bayes statistics) and the
	// wedge-work estimate the worker clamp reads serve every algorithm.
	arts.DegreeOrder()
	arts.CSRView()
	wedgeWork(g)
	for _, name := range names {
		if a := byName[name]; a != nil && a.warm != nil {
			a.warm(g, opt)
		}
	}
	arts.Block(opt.TopDegreeBlock)
}
