package predict

import (
	"fmt"
	"math"
	"math/rand"

	"linkpred/internal/graph"
	"linkpred/internal/linalg"
	"linkpred/internal/snapcache"
)

// KatzLR is the low-rank Katz approximation (Katz_lr, Acar et al. [1]; after
// §4.2 the paper calls it simply Katz): with the rank-r eigendecomposition
// A ≈ Q Λ Qᵀ,
//
//	Katz(u,v) = Σ_{l>=1} βˡ (Aˡ)_{uv} ≈ Σ_i f(λ_i) q_ui q_vi,
//	f(λ) = βλ / (1 - βλ).
var KatzLR Algorithm = latent(func(g *graph.Graph, opt Options) func(u, v graph.NodeID) float64 {
	scaled, raw := katzFactors(g, opt)
	return func(u, v graph.NodeID) float64 { return linalg.Dot(scaled.Row(int(u)), raw.Row(int(v))) }
}).row("Katz")

// katzFactors returns the rank-r factors: scaled[u] · raw[v] = score(u,v).
// The factors are cached per snapshot under the full parameter set, so
// Predict and ScorePairs against the same cut share one eigensolve.
func katzFactors(g *graph.Graph, opt Options) (scaled, raw *linalg.Dense) {
	rank := opt.KatzRank
	if rank <= 0 {
		rank = 32
	}
	iters := opt.KatzEigIters
	if iters <= 0 {
		iters = 40
	}
	key := fmt.Sprintf("predict/katz/r=%d,it=%d,beta=%v,seed=%d", rank, iters, opt.KatzBeta, opt.Seed)
	return factorPair(g, key, func() (*linalg.Dense, *linalg.Dense) {
		a := linalg.AdjacencyOf(g)
		vals, vecs := a.TopEig(rank, iters, opt.Seed, workerCount(opt))
		scaled := vecs.Clone()
		for i, lam := range vals {
			f := 0.0
			bl := opt.KatzBeta * lam
			if bl < 1 {
				f = bl / (1 - bl)
			} else {
				// Series diverges for βλ >= 1; clamp to a large finite weight,
				// preserving the ordering (dominant directions dominate).
				f = 1e6
			}
			for u := 0; u < scaled.Rows; u++ {
				scaled.Set(u, i, vecs.At(u, i)*f)
			}
		}
		return scaled, vecs
	})
}

// KatzSC is the scalable Katz proximity estimation (Katz_sc, after Song et
// al. [38]): a Nyström-style landmark embedding. Truncated Katz columns are
// computed exactly for L landmark nodes (half top-degree, half random), and
// Katz(u,v) ≈ C W⁺ Cᵀ where C holds the landmark columns and W the
// landmark-landmark submatrix. Cheaper but less accurate than Katz_lr,
// matching the paper's observed ordering.
var KatzSC Algorithm = latent(func(g *graph.Graph, opt Options) func(u, v graph.NodeID) float64 {
	p, c := katzSCFactors(g, opt)
	return func(u, v graph.NodeID) float64 { return linalg.Dot(p.Row(int(u)), c.Row(int(v))) }
}).row("KatzSC")

// katzSCFactors returns P = C W⁺ (n x L) and C (n x L); score = P_u · C_v.
// Cached per snapshot under the full parameter set.
func katzSCFactors(g *graph.Graph, opt Options) (p, c *linalg.Dense) {
	n := g.NumNodes()
	L := opt.KatzLandmarks
	if L <= 0 {
		L = 64
	}
	if L > n {
		L = n
	}
	maxLen := opt.KatzMaxLen
	if maxLen <= 0 {
		maxLen = 4
	}
	key := fmt.Sprintf("predict/katzsc/L=%d,len=%d,beta=%v,seed=%d", L, maxLen, opt.KatzBeta, opt.Seed)
	// The build runs context-free: the factors are cached per snapshot and
	// shared across callers, so a request deadline must not truncate them.
	bopt := opt
	bopt.Ctx = nil
	return factorPair(g, key, func() (*linalg.Dense, *linalg.Dense) {
		return buildKatzSCFactors(g, bopt, n, L, maxLen)
	})
}

func buildKatzSCFactors(g *graph.Graph, opt Options, n, L, maxLen int) (p, c *linalg.Dense) {
	landmarks := pickLandmarks(g, L, opt.Seed)
	// C columns: truncated Katz vectors from each landmark. Columns are
	// independent, so the computation shards over landmarks; workers write
	// disjoint columns of c.
	c = linalg.NewDense(n, L)
	workers := workerCount(opt)
	scratch := make([]*walkScratch, workers)
	shardRange(opt, len(landmarks), workers, func(wk, lo, hi int) {
		if scratch[wk] == nil {
			scratch[wk] = newWalkScratch(n)
		}
		for j := lo; j < hi; j++ {
			col := katzVector(g, landmarks[j], opt.KatzBeta, maxLen, scratch[wk])
			for _, v := range col.touched {
				c.Set(int(v), j, col.val[v])
			}
		}
	})
	// W = C[landmarks, :], symmetrized; pseudo-inverse via Jacobi.
	w := linalg.NewDense(L, L)
	for i, l := range landmarks {
		for j := 0; j < L; j++ {
			w.Set(i, j, c.At(int(l), j))
		}
	}
	for i := 0; i < L; i++ {
		for j := i + 1; j < L; j++ {
			v := (w.At(i, j) + w.At(j, i)) / 2
			w.Set(i, j, v)
			w.Set(j, i, v)
		}
	}
	vals, vecs := linalg.JacobiEig(w)
	// W⁺ = V f(Λ) Vᵀ with f(λ) = 1/λ for |λ| above a relative threshold.
	var maxAbs float64
	for _, v := range vals {
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	ridge := nystromCutoff * maxAbs
	ridge *= ridge
	winv := linalg.NewDense(L, L)
	for i := 0; i < L; i++ {
		for j := 0; j < L; j++ {
			var s float64
			for t := 0; t < L; t++ {
				s += vecs.At(i, t) * vecs.At(j, t) * vals[t] / (vals[t]*vals[t] + ridge)
			}
			winv.Set(i, j, s)
		}
	}
	return c.MatMul(winv, workerCount(opt)), c
}

var nystromCutoff = 1e-10

// pickLandmarks selects half the landmarks by top degree and the rest
// uniformly at random among remaining nodes. The degree order comes from
// the shared snapshot cache (same canonical comparator as the top-degree
// candidate block and PA's frontier).
func pickLandmarks(g *graph.Graph, L int, seed int64) []graph.NodeID {
	order := snapcache.For(g).DegreeOrder()
	half := L / 2
	landmarks := append([]graph.NodeID(nil), order[:half]...)
	rest := append([]graph.NodeID(nil), order[half:]...)
	rng := rand.New(rand.NewSource(seed ^ 0xca72))
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	landmarks = append(landmarks, rest[:L-half]...)
	return landmarks
}
