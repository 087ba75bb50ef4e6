package gen

import (
	"fmt"
	"strings"
)

// The three presets are scaled-down analogues of the paper's Table 2
// datasets. The absolute sizes are ~20-1000x smaller than the originals so
// the full experiment suite runs on one machine, but the *relative*
// structural properties the paper's analysis depends on are preserved:
//
//   - Facebook: regional friendship network. Dense, positively assortative,
//     triadic-closure dominated, but with a *declining* 2-hop edge ratio λ₂
//     over time (the regional-subsampling artifact of §4.2), emulated with a
//     negative TriadSlope.
//   - Renren: non-sampled friendship network. The fastest grower, densest,
//     with λ₂ *increasing* over time (densification).
//   - YouTube: subscription network. Sparse (~80% of nodes end with degree
//     ≤ 3), supernode-driven (top ~0.1% of nodes participate in ~40% of new
//     edges), negatively assortative.
//
// Snapshot deltas follow the paper's rule (§3.2): enough snapshots (>15)
// with bounded wall-clock per transition. DefaultDelta exposes the delta
// used for each preset by the experiment harness.

// Facebook returns the Facebook (New Orleans) analogue configuration.
func Facebook(seed int64) Config {
	return Config{
		Name:             "facebook",
		Seed:             seed,
		Days:             365,
		InitialNodes:     400,
		InitialEdges:     2400,
		FinalNodes:       3000,
		FinalEdges:       26000,
		PTriad:           0.78,
		PPref:            0.06,
		TriadSlope:       -0.45,
		PActiveReuse:     0.55,
		ActiveWindowDays: 15,
		LifetimeDays:     60,
	}
}

// Renren returns the Renren analogue configuration (non-sampled, fastest
// growth, densest).
func Renren(seed int64) Config {
	return Config{
		Name:             "renren",
		Seed:             seed,
		Days:             365,
		InitialNodes:     700,
		InitialEdges:     5600,
		FinalNodes:       5200,
		FinalEdges:       60000,
		PTriad:           0.62,
		PPref:            0.18,
		TriadSlope:       0.45,
		PActiveReuse:     0.65,
		ActiveWindowDays: 7,
		LifetimeDays:     45,
	}
}

// YouTube returns the YouTube analogue configuration (subscription network
// with supernodes and negative assortativity).
func YouTube(seed int64) Config {
	return Config{
		Name:             "youtube",
		Seed:             seed,
		Days:             150,
		InitialNodes:     1200,
		InitialEdges:     2600,
		FinalNodes:       7000,
		FinalEdges:       19000,
		PTriad:           0.22,
		PPref:            0.48,
		TriadSlope:       0.50,
		PActiveReuse:     0.50,
		ActiveWindowDays: 7,
		LifetimeDays:     30,
		SupernodeCount:   8,
		PSupernode:       0.40,
	}
}

// Renren100K returns the 10⁵-node Renren analogue (~104K final nodes,
// ~1.2M final edges): the Renren growth mechanics scaled 20x, sized to
// exercise the candidate-generation engine's scaling behavior on one
// machine. The paper's real Renren snapshots span 1.4M-10.5M nodes; this
// preset is the single-machine benchmark point between the unit-test scale
// and Renren1M.
func Renren100K(seed int64) Config {
	c := Renren(seed).Scaled(20)
	c.Name = "renren-100k"
	return c
}

// Renren1M returns the 10⁶-node Renren analogue (~1.04M final nodes, ~12M
// final edges), the largest generated benchmark preset — comparable in node
// count to the paper's earliest full Renren snapshot.
func Renren1M(seed int64) Config {
	c := Renren(seed).Scaled(200)
	c.Name = "renren-1m"
	return c
}

// DefaultDelta returns the snapshot delta used by the experiment harness for
// a preset, chosen so each trace yields a Table 2-like number of snapshots
// (Facebook 31, YouTube 21, Renren 17).
func DefaultDelta(cfg Config) int {
	switch cfg.Name {
	case "facebook":
		return cfg.FinalEdges / 31
	case "youtube":
		return cfg.FinalEdges / 21
	case "renren":
		return cfg.FinalEdges / 17
	default:
		return cfg.FinalEdges / 20
	}
}

// Presets returns the three paper-analogue configurations in the order the
// paper tabulates them (Facebook, YouTube, Renren).
func Presets(seed int64) []Config {
	return []Config{Facebook(seed), YouTube(seed + 1), Renren(seed + 2)}
}

// ByName resolves a preset by its Config.Name: the one name table the
// command-line tools share.
func ByName(name string, seed int64) (Config, error) {
	var names []string
	for _, c := range []Config{Facebook(seed), YouTube(seed), Renren(seed), Renren100K(seed), Renren1M(seed)} {
		if c.Name == name {
			return c, nil
		}
		names = append(names, c.Name)
	}
	return Config{}, fmt.Errorf("gen: unknown preset %q (%s)", name, strings.Join(names, ", "))
}
