package predict

import (
	"fmt"
	"math/rand"

	"linkpred/internal/graph"
	"linkpred/internal/linalg"
)

// Rescal is the tensor-factorization algorithm: it factorizes the adjacency
// matrix as A ≈ X R Xᵀ (Nickel et al. [33], restricted to the single
// "friendship" relation) with ridge-regularized alternating least squares,
// and scores
//
//	score(u,v) = (X R Xᵀ)_{uv} + (X R Xᵀ)_{vu} = XR_u · X_v + XR_v · X_u.
//
// The latent space concentrates weight on structurally central nodes, which
// is why Rescal excels on the supernode-driven YouTube-style network (§4.2).
var Rescal Algorithm = latent(func(g *graph.Graph, opt Options) func(u, v graph.NodeID) float64 {
	xr, x := rescalFactors(g, opt)
	return func(u, v graph.NodeID) float64 {
		return linalg.Dot(xr.Row(int(u)), x.Row(int(v))) + linalg.Dot(xr.Row(int(v)), x.Row(int(u)))
	}
}).row("Rescal")

// rescalFactors runs ALS and returns XR = X·R and XRt = X·Rᵀ along with X;
// score(u,v) = XR_u · X_v + XRt_v · X_u... equivalently XR_u·X_v + XR_v·X_u.
// The factors are cached per snapshot under the full parameter set, so
// Predict and ScorePairs against the same cut share one ALS run.
func rescalFactors(g *graph.Graph, opt Options) (xr, x *linalg.Dense) {
	n := g.NumNodes()
	rank := opt.RescalRank
	if rank <= 0 {
		rank = 16
	}
	if rank > n {
		rank = n
	}
	// A few ALS sweeps from the spectral start refine R and X without
	// drifting away from the dominant-direction anchor (longer refinement
	// can slide into a community-level fit that zeroes the supernode
	// signal on subscription networks).
	iters := opt.RescalIters
	if iters <= 0 {
		iters = 4
	}
	lambda := opt.RescalLambda
	if lambda <= 0 {
		lambda = 10
	}
	key := fmt.Sprintf("predict/rescal/r=%d,it=%d,lambda=%v,seed=%d", rank, iters, lambda, opt.Seed)
	return factorPair(g, key, func() (*linalg.Dense, *linalg.Dense) {
		return buildRescalFactors(g, opt, n, rank, iters, lambda)
	})
}

func buildRescalFactors(g *graph.Graph, opt Options, n, rank, iters int, lambda float64) (xr, x *linalg.Dense) {
	a := linalg.AdjacencyOf(g)
	workers := workerCount(opt)
	// Spectral initialization: start X at the dominant eigenvectors of A
	// (perturbed slightly to break symmetric ALS stationary points). This
	// keeps ALS deterministic and anchored to the graph's strongest latent
	// directions — on supernode-driven networks those are the supernode
	// axes, which is the structure the paper credits for Rescal's YouTube
	// performance (§4.2).
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x7e5ca1))
	_, vecs := a.TopEig(rank, 30, opt.Seed^0x7e5ca1, workers)
	x = vecs.Clone()
	for i := range x.Data {
		x.Data[i] += rng.NormFloat64() * 1e-3
	}
	r := linalg.NewDense(rank, rank)
	ax := linalg.NewDense(n, rank)
	for it := 0; it < iters; it++ {
		// R update: R = (XᵀX + λI)⁻¹ XᵀAX (XᵀX + λI)⁻¹.
		xtx := x.T().MatMul(x, workers)
		xtx.AddDiag(lambda)
		a.MulDense(x, ax, workers)
		xtax := x.T().MatMul(ax, workers)
		tmp := linalg.CholSolve(xtx, xtax)     // (XᵀX+λI)⁻¹ XᵀAX
		r = linalg.CholSolve(xtx, tmp.T()).T() // ... (XᵀX+λI)⁻¹, using symmetry
		// X update: X = [AX(R + Rᵀ)] [R C Rᵀ + Rᵀ C R + λI]⁻¹ with C = XᵀX.
		c := x.T().MatMul(x, workers)
		rcrt := linalg.MatMul(linalg.MatMul(r, c), r.T())
		rtcr := linalg.MatMul(linalg.MatMul(r.T(), c), r)
		s := linalg.NewDense(rank, rank)
		for i := range s.Data {
			s.Data[i] = rcrt.Data[i] + rtcr.Data[i]
		}
		s.AddDiag(lambda)
		rrt := linalg.NewDense(rank, rank)
		for i := 0; i < rank; i++ {
			for j := 0; j < rank; j++ {
				rrt.Set(i, j, r.At(i, j)+r.At(j, i))
			}
		}
		a.MulDense(x, ax, workers)
		b := ax.MatMul(rrt, workers)
		x = linalg.CholSolve(s, b.T()).T()
	}
	return x.MatMul(r, workers), x
}
