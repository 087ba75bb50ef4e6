package predict

import (
	"linkpred/internal/graph"
	"linkpred/internal/snapcache"
)

// Warm prebuilds the per-snapshot cached artifacts the named algorithms
// read on their scoring paths: the degree order and top-degree candidate
// block, the log-degree table for the log-weighted local metrics, and the
// latent factor matrices (Katz eigensolve, KatzSC landmark embedding, Rescal
// ALS) under the parameter set opt encodes.
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
	if g.Partition() != nil {
		// Partitioned snapshots serve only the partition-safe local family.
		// The latent factorizations would silently read the truncated
		// frontier rows, so only the degree-derived artifacts are warmed
		// (CSRView disables its hub block on partitions itself).
		arts.DegreeOrder()
		arts.CSRView()
		wedgeWork(g)
		for _, name := range names {
			if name == "AA" || name == "RA" {
				logDegTable(g)
			}
		}
		return
	}
	arts.DegreeOrder()
	// The degree-ordered view with hub bitsets backs the local metrics'
	// batch probes and naive Bayes statistics; build it off the request
	// path along with the wedge-work estimate the worker clamp reads.
	arts.CSRView()
	wedgeWork(g)
	for _, name := range names {
		switch name {
		case "CN", "JC":
			// Count-only local metrics: the sweep needs no cached tables.
		case "AA", "RA", "BCN", "BAA", "BRA":
			logDegTable(g)
		case "Katz":
			katzFactors(g, opt)
		case "KatzSC":
			katzSCFactors(g, opt)
		case "Rescal":
			rescalFactors(g, opt)
		default:
			// Walk/path algorithms keep per-source scratch, not snapshot
			// artifacts.
		}
	}
	arts.Block(opt.TopDegreeBlock)
}
