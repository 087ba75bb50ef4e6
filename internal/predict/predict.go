// Package predict implements the paper's core subject matter: the 14
// metric-based link prediction algorithms of Table 3 (CN, JC, AA, RA, BCN,
// BAA, BRA, PA, SP, LP, Katz with low-rank and scalable approximations, PPR,
// LRW, Rescal), the candidate enumeration and top-k selection machinery, and
// the random-prediction baseline that defines the accuracy ratio.
//
// Every algorithm supports two operations:
//
//   - Predict: return the top-k most likely new edges on a snapshot, the
//     §4.1 experiment;
//   - ScorePairs: score an explicit list of candidate pairs, used both for
//     classifier feature extraction (§5) and for evaluating metrics on
//     snowball-sampled node sets (Fig. 11).
//
// Scores are comparable only within a single (algorithm, snapshot) pair,
// exactly as the paper uses them.
package predict

import (
	"context"
	"fmt"
	"math"
	"sort"

	"linkpred/internal/graph"
)

// Pair is a scored candidate node pair with U < V.
type Pair struct {
	U, V  graph.NodeID
	Score float64
}

// Key returns a canonical uint64 key for the pair.
func (p Pair) Key() uint64 { return PairKey(p.U, p.V) }

// PairKey canonicalizes (u, v) into a single map key.
func PairKey(u, v graph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// KeyPair inverts PairKey.
func KeyPair(k uint64) (u, v graph.NodeID) {
	return graph.NodeID(k >> 32), graph.NodeID(uint32(k))
}

// Options carries the tunable parameters of all algorithms, using the
// paper's fine-tuned settings as defaults (§3.2).
type Options struct {
	// Seed drives tie-breaking and every internal randomized routine.
	Seed int64

	// Workers bounds the goroutines used inside Predict and ScorePairs
	// (0 = runtime.GOMAXPROCS). Output is bit-identical for every worker
	// count; validateOptions rejects negative values.
	Workers int

	// Ctx, when non-nil and cancellable, bounds in-flight work: the engine
	// checks it once per chunk claim and stops claiming further chunks after
	// cancellation, so a cancelled call returns within one chunk of work per
	// worker. The results of a cancelled call are partial and must be
	// discarded — callers own the Ctx.Err() check after the call returns.
	// Cached per-snapshot artifact builds (latent factor matrices) ignore
	// the context deliberately: they are shared across callers through
	// snapcache, and aborting one mid-build would poison every later request
	// against the same snapshot. A nil or never-cancelled Ctx leaves output
	// bit-identical to the context-free path.
	Ctx context.Context

	// KatzBeta is the Katz attenuation factor (paper: 0.001).
	KatzBeta float64
	// KatzRank is the rank of the low-rank approximation Katz_lr.
	KatzRank int
	// KatzEigIters bounds subspace-iteration sweeps for Katz_lr.
	KatzEigIters int
	// KatzLandmarks is the Nyström landmark count for Katz_sc.
	KatzLandmarks int
	// KatzMaxLen truncates the walk-length sum in Katz_sc columns.
	KatzMaxLen int

	// LPEpsilon weights 3-hop paths in the Local Path index (paper: 1e-4).
	LPEpsilon float64

	// PPRAlpha is the personalized PageRank restart probability (paper: 0.15).
	PPRAlpha float64
	// PPREps is the forward-push residual threshold.
	PPREps float64

	// LRWSteps is the Local Random Walk step count m.
	LRWSteps int

	// RescalRank, RescalIters, RescalLambda parameterize ALS factorization.
	RescalRank   int
	RescalIters  int
	RescalLambda float64

	// SPMaxDepth truncates shortest-path BFS.
	SPMaxDepth int

	// SourceRange, when non-nil, restricts Predict to the candidate pairs
	// owned by the source-node interval [Lo, Hi) — the distributed sweep's
	// unit of work (shard.go documents the ownership rule and the merge
	// exactness argument). The restricted sweep computes exactly the scores
	// the unrestricted sweep computes for the owned pairs, so merging the
	// Predict outputs of a disjoint cover of [0, n) through MergeTopK is
	// bit-identical to a single unrestricted Predict. ScorePairs ignores the
	// restriction: explicit pair batches are already routed by their caller.
	// validateOptions rejects Lo < 0 and Hi < Lo; Hi is clamped to the
	// snapshot size.
	SourceRange *SourceRange

	// TopDegreeBlock is the number of highest-degree nodes whose pairings
	// with every other node are added to the global candidate set used by
	// latent-space algorithms.
	TopDegreeBlock int
	// RandomCandidates is the number of uniform random unconnected pairs
	// added to the global candidate set.
	RandomCandidates int

	// rec collects telemetry for the current call. The registry row's
	// Predict attaches it on its local Options copy via beginRun; nil (the
	// zero value, and always when obs is disabled) makes every hook a
	// no-op. Never set by callers.
	rec *obsRun
}

// DefaultOptions returns the paper's tuned parameter settings.
func DefaultOptions() Options {
	return Options{
		Seed:             1,
		KatzBeta:         0.001,
		KatzRank:         32,
		KatzEigIters:     40,
		KatzLandmarks:    64,
		KatzMaxLen:       4,
		LPEpsilon:        1e-4,
		PPRAlpha:         0.15,
		PPREps:           1e-5,
		LRWSteps:         3,
		RescalRank:       16,
		RescalIters:      4,
		RescalLambda:     10,
		SPMaxDepth:       6,
		TopDegreeBlock:   48,
		RandomCandidates: 20000,
	}
}

// Algorithm is one link prediction method.
type Algorithm interface {
	// Name is the paper's abbreviation (CN, JC, ..., Rescal).
	Name() string
	// Predict returns the k candidate pairs most likely to form edges on
	// g, highest score first. Ties are broken by a deterministic
	// pseudo-random hash of (Options.Seed, pair), mirroring the paper's
	// implicit random tie-breaking.
	Predict(g *graph.Graph, k int, opt Options) []Pair
	// ScorePairs returns a score for each given pair (in order). Pairs
	// need not be unconnected; callers filter as needed.
	ScorePairs(g *graph.Graph, pairs []Pair, opt Options) []float64
}

// tieHash produces the deterministic tie-break for equal scores
// (splitmix64 over the seed and canonical pair key).
func tieHash(seed int64, u, v graph.NodeID) uint64 {
	x := uint64(seed) ^ PairKey(u, v)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// topK is a bounded min-heap selecting the k best (score, tie) entries.
type topK struct {
	k     int
	seed  int64
	pairs []Pair
	ties  []uint64
	// offered and evicted tally the candidates Add was given and the
	// full-heap replacements. Only the sweep-level selectors (newTopKRec)
	// are published, never merge targets, so merged entries are not double
	// counted.
	offered, evicted int64
}

// maxPrealloc caps every capacity hint derived from a request's k: memory
// follows the candidates actually retained, never the number asked for, so
// k=2·10⁹ costs what its answer costs. Capacity is not content — output is
// identical at any cap.
const maxPrealloc = 1024

func newTopK(k int, seed int64) *topK {
	c := min(k, maxPrealloc)
	return &topK{k: k, seed: seed, pairs: make([]Pair, 0, c), ties: make([]uint64, 0, c)}
}

// newTopKRec is newTopK registered with the current call's telemetry
// recorder; the sharded sweeps use it for their per-worker selectors.
func newTopKRec(k int, opt Options) *topK {
	t := newTopK(k, opt.Seed)
	opt.rec.track(t)
	return t
}

// less reports whether entry i ranks below entry j (worse score first).
func (t *topK) less(i, j int) bool {
	if t.pairs[i].Score != t.pairs[j].Score {
		return t.pairs[i].Score < t.pairs[j].Score
	}
	return t.ties[i] < t.ties[j]
}

func (t *topK) swap(i, j int) {
	t.pairs[i], t.pairs[j] = t.pairs[j], t.pairs[i]
	t.ties[i], t.ties[j] = t.ties[j], t.ties[i]
}

func (t *topK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.less(i, parent) {
			break
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *topK) siftDown(i int) {
	n := len(t.pairs)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && t.less(l, smallest) {
			smallest = l
		}
		if r < n && t.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		t.swap(i, smallest)
		i = smallest
	}
}

// Add offers a candidate; returns quickly when it cannot enter the top k.
func (t *topK) Add(u, v graph.NodeID, score float64) {
	t.offered++
	t.add(Pair{U: minID(u, v), V: maxID(u, v), Score: score}, tieHash(t.seed, u, v))
}

// add inserts an already-canonical entry with a precomputed tie-hash; the
// parallel merge uses it to carry ties across per-worker selections without
// rehashing.
func (t *topK) add(p Pair, tie uint64) {
	if t.k <= 0 {
		return
	}
	if len(t.pairs) == t.k {
		worst := t.pairs[0]
		if p.Score < worst.Score || (p.Score == worst.Score && tie <= t.ties[0]) {
			return
		}
		t.evicted++
		t.pairs[0] = p
		t.ties[0] = tie
		t.siftDown(0)
		return
	}
	t.pairs = append(t.pairs, p)
	t.ties = append(t.ties, tie)
	t.siftUp(len(t.pairs) - 1)
}

// Result returns the selected pairs sorted best-first. The sort permutes
// (pairs, ties) in place — no index slice, no copy — which finalizes the
// selector: offering further candidates afterwards is not supported.
func (t *topK) Result() []Pair {
	sort.Sort((*topKByRank)(t))
	return t.pairs
}

// topKByRank sorts a topK's parallel slices best-first (descending score,
// then descending tie-hash).
type topKByRank topK

func (t *topKByRank) Len() int { return len(t.pairs) }

func (t *topKByRank) Less(i, j int) bool {
	if t.pairs[i].Score != t.pairs[j].Score {
		return t.pairs[i].Score > t.pairs[j].Score
	}
	return t.ties[i] > t.ties[j]
}

func (t *topKByRank) Swap(i, j int) { (*topK)(t).swap(i, j) }

// Ranker is an exported bounded top-k selector with the same deterministic
// tie-breaking Predict uses; the classification pipeline ranks candidate
// pairs through it so metric- and classifier-based selections are directly
// comparable.
type Ranker struct{ t *topK }

// NewRanker returns a selector keeping the k best-scored pairs.
func NewRanker(k int, seed int64) *Ranker { return &Ranker{t: newTopK(k, seed)} }

// Add offers a scored pair.
func (r *Ranker) Add(u, v graph.NodeID, score float64) { r.t.Add(u, v, score) }

// Result returns the selected pairs, best first.
func (r *Ranker) Result() []Pair { return r.t.Result() }

func minID(a, b graph.NodeID) graph.NodeID {
	if a < b {
		return a
	}
	return b
}

func maxID(a, b graph.NodeID) graph.NodeID {
	if a < b {
		return b
	}
	return a
}

// ExpectedRandomOverlap returns the expected number of correct predictions
// when k pairs are drawn uniformly from the unconnected pairs of g and
// exactly k of those pairs actually connect: k²/U (§4.1).
func ExpectedRandomOverlap(g *graph.Graph, k int) float64 {
	u := g.UnconnectedPairs()
	if u <= 0 {
		return 0
	}
	return float64(k) * float64(k) / float64(u)
}

// AccuracyRatio is the paper's headline performance metric: correct
// predictions divided by the random baseline's expectation.
func AccuracyRatio(correct, k int, g *graph.Graph) float64 {
	exp := ExpectedRandomOverlap(g, k)
	if exp <= 0 {
		return 0
	}
	return float64(correct) / exp
}

// CountCorrect returns how many predicted pairs appear in truth, where truth
// holds PairKey values of the actually created edges.
func CountCorrect(pred []Pair, truth map[uint64]bool) int {
	n := 0
	for _, p := range pred {
		if truth[p.Key()] {
			n++
		}
	}
	return n
}

// TruthSet builds the PairKey set of new edges appearing among the nodes of
// prev (both endpoints must already exist and be unconnected in prev),
// matching the paper's prediction target definition (§2).
func TruthSet(prev *graph.Graph, newEdges []graph.Edge) map[uint64]bool {
	n := graph.NodeID(prev.NumNodes())
	truth := make(map[uint64]bool)
	for _, e := range newEdges {
		if e.U >= n || e.V >= n || e.U == e.V || prev.HasEdge(e.U, e.V) {
			continue
		}
		truth[PairKey(e.U, e.V)] = true
	}
	return truth
}

// validateOptions panics on nonsensical option values; the registry row's
// Predict calls it before any engine runs.
func validateOptions(opt Options) {
	if opt.KatzBeta < 0 || opt.LPEpsilon < 0 || opt.PPRAlpha <= 0 || opt.PPRAlpha >= 1 || opt.Workers < 0 {
		panic(fmt.Sprintf("predict: invalid options %+v", opt))
	}
	if r := opt.SourceRange; r != nil && (r.Lo < 0 || r.Hi < r.Lo) {
		panic(fmt.Sprintf("predict: invalid source range [%d, %d)", r.Lo, r.Hi))
	}
}

// nonNegLog guards log computations used by the naive Bayes metrics.
func nonNegLog(x float64) float64 {
	if x <= 1 {
		// log(deg) with deg <= 2 would zero or invert the AA weight; the
		// standard convention clamps the denominator.
		return math.Log(2)
	}
	return math.Log(x)
}
