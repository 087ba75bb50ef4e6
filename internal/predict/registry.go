package predict

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"linkpred/internal/graph"
)

// ErrUnknownAlgorithm is wrapped by ByName for unrecognized names, so
// callers (e.g. the serving layer's HTTP 400 mapping) can errors.Is it.
var ErrUnknownAlgorithm = errors.New("unknown algorithm")

// algo is the registry row: the one description of an algorithm. Every
// layer that asks a question about an algorithm by name (shard planning,
// artifact warming) reads a field here, and every
// exported algorithm value is a *algo, so Predict and ScorePairs run one
// shared prologue before the family engine behind predict/score.
type algo struct {
	name string
	// cost is the per-source work estimate shard boundaries are balanced
	// over (CostModelFor).
	cost CostModel
	// warm prebuilds the per-snapshot artifacts this algorithm reads beyond
	// the degree-derived set Warm always builds; nil when there are none.
	warm func(g *graph.Graph, opt Options)
	// predict and score are the family engine instantiated for this
	// algorithm; they run under the prologue of the methods below.
	predict func(g *graph.Graph, k int, opt Options) []Pair
	score   func(g *graph.Graph, pairs []Pair, opt Options) []float64
	// m holds the row's telemetry handles, resolved when byName indexes
	// the registry.
	m *rowMetrics
}

func (a *algo) Name() string { return a.name }

func (a *algo) Predict(g *graph.Graph, k int, opt Options) []Pair {
	validateOptions(opt)
	r := beginRun(a.m, a.m.predictNS, 0)
	defer r.end()
	opt.rec = r
	return a.predict(g, k, opt)
}

func (a *algo) ScorePairs(g *graph.Graph, pairs []Pair, opt Options) []float64 {
	defer beginRun(a.m, a.m.scoreNS, int64(len(pairs))).end()
	return a.score(g, pairs, opt)
}

// registry is every algorithm ByName resolves, in lookup order: the
// evaluated set (All), then KatzExact, the truncated-exact reference the
// paper's Katz approximations are validated against. It is the one table;
// tests range over it.
var (
	evaluated = []Algorithm{CN, JC, AA, RA, BCN, BAA, BRA, PA, SP, LP, KatzLR, KatzSC, PPR, LRW, Rescal}
	registry  = append(slices.Clone(evaluated), KatzExact)
)

// byName indexes registry's rows once and resolves each row's telemetry
// handles; names are unique (TestComparatorsRegistry).
var byName = func() map[string]*algo {
	m := make(map[string]*algo, len(registry))
	for _, a := range registry {
		row := a.(*algo)
		row.m, m[row.name] = newRowMetrics(row.name), row
	}
	return m
}()

// All returns every implemented metric-based algorithm, including both Katz
// approximations (the paper's 14 metrics of Table 3, with Katz counted once
// but implemented twice as Katz_lr and Katz_sc).
func All() []Algorithm { return slices.Clone(evaluated) }

// FeatureSet returns the 14 metrics used as classifier input features (§5),
// using Katz_lr as "Katz" exactly as the paper does after §4.2.
func FeatureSet() []Algorithm {
	return []Algorithm{CN, JC, AA, RA, BCN, BAA, BRA, PA, SP, LP, KatzLR, PPR, LRW, Rescal}
}

// Figure5Set returns the algorithms plotted in Figure 5 (CN, AA, RA omitted
// in favour of their naive Bayes variants, both Katz variants included).
func Figure5Set() []Algorithm {
	return []Algorithm{JC, BCN, BAA, BRA, PA, SP, LP, KatzLR, KatzSC, PPR, LRW, Rescal}
}

// ByName resolves an algorithm by its paper abbreviation: an allocation-free
// lookup in the registry's name index.
func ByName(name string) (Algorithm, error) {
	if a, ok := byName[name]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("predict: %w %q", ErrUnknownAlgorithm, name)
}

// RandomPrediction draws k distinct unconnected pairs uniformly at random,
// the paper's baseline predictor (§4.1).
func RandomPrediction(g *graph.Graph, k int, seed int64) []Pair {
	n := g.NumNodes()
	if n < 2 || k <= 0 {
		return nil
	}
	if int64(k) > g.UnconnectedPairs() {
		k = int(g.UnconnectedPairs())
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, min(k, maxPrealloc))
	out := make([]Pair, 0, min(k, maxPrealloc))
	for len(out) < k {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		key := PairKey(u, v)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Pair{U: minID(u, v), V: maxID(u, v)})
	}
	return out
}
