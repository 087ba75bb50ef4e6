package linalg

import (
	"math/rand"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/par"
)

// The backend's timing histograms.
var (
	matMulNS   = obs.GetHistogram("linalg/mat_mul_ns")
	mulDenseNS = obs.GetHistogram("linalg/mul_dense_ns")
	topEigNS   = obs.GetHistogram("linalg/top_eig_ns")
)

// CSR is the symmetric unit-valued adjacency matrix of a snapshot, read in
// place: row i is g.Neighbors(i), ascending, so the products below fold each
// row in the order a compressed-sparse-row copy would and hold no copy of
// their own.
type CSR struct {
	N int
	g *graph.Graph
}

// AdjacencyOf returns the adjacency matrix of the snapshot g.
func AdjacencyOf(g *graph.Graph) CSR {
	return CSR{N: g.NumNodes(), g: g}
}

// mulDenseRange computes rows [lo, hi) of Y = A X.
func (a CSR) mulDenseRange(x, y *Dense, lo, hi int) {
	r := x.Cols
	for i := lo; i < hi; i++ {
		yrow := y.Row(i)
		for j := 0; j < r; j++ {
			yrow[j] = 0
		}
		for _, c := range a.g.Neighbors(graph.NodeID(i)) {
			xrow := x.Row(int(c))
			for j := 0; j < r; j++ {
				yrow[j] += xrow[j]
			}
		}
	}
}

// MulDense computes Y = A X for a dense n x r matrix X across workers
// goroutines, overwriting Y. Row ownership keeps the per-row accumulation
// order identical to a serial run, so the result is bit-identical at any
// worker count.
func (a CSR) MulDense(x, y *Dense, workers int) {
	start := obs.Start()
	par.ShardRange(a.N, workers, func(_, lo, hi int) { a.mulDenseRange(x, y, lo, hi) })
	mulDenseNS.Since(start)
}

// transposeInto writes src^T into dst; shapes must already agree.
func transposeInto(dst, src *Dense) {
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = v
		}
	}
}

// TopEig approximates the r dominant (largest magnitude) eigenpairs of the
// symmetric matrix a using subspace iteration with Rayleigh-Ritz extraction,
// spreading the sparse multiplies and the Ritz projection over workers
// goroutines. Eigenvalues are returned in descending order of signed value;
// the i-th column of vecs is the eigenvector for vals[i].
//
// Internally the iterate basis lives in transposed r x n form so each basis
// vector is a contiguous row during orthonormalization and projection; the
// random initialization and every float operation replay the historical
// n x r element order, so results are bit-identical to the original serial
// column-major implementation at any worker count.
func (a CSR) TopEig(r, iters int, seed int64, workers int) (vals []float64, vecs *Dense) {
	if r > a.N {
		r = a.N
	}
	if r <= 0 {
		return nil, NewDense(a.N, 0)
	}
	startAll := obs.Start()
	rng := rand.New(rand.NewSource(seed))
	qt := NewDense(r, a.N) // basis vectors as rows
	// Draw in the element order of the historical row-major n x r fill so
	// the starting subspace (and therefore every downstream float) matches
	// the original implementation exactly.
	for i := 0; i < a.N; i++ {
		for j := 0; j < r; j++ {
			qt.Data[j*a.N+i] = rng.NormFloat64()
		}
	}
	qrRows(qt, rng)
	q := NewDense(a.N, r)
	y := NewDense(a.N, r)
	for it := 0; it < iters; it++ {
		transposeInto(q, qt)
		a.MulDense(q, y, workers)
		transposeInto(qt, y)
		qrRows(qt, rng)
	}
	// Rayleigh-Ritz: T = Q^T A Q, then rotate Q by T's eigenvectors.
	transposeInto(q, qt)
	a.MulDense(q, y, workers) // y = A Q
	yt := NewDense(r, a.N)
	transposeInto(yt, y)
	t := NewDense(r, r)
	par.ShardRangeMin(r, workers, 2, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			qrow := qt.Row(i)
			trow := t.Row(i)
			for j := 0; j < r; j++ {
				trow[j] = Dot(qrow, yt.Row(j))
			}
		}
	})
	// Symmetrize against round-off before Jacobi.
	for i := 0; i < r; i++ {
		for j := i + 1; j < r; j++ {
			v := (t.At(i, j) + t.At(j, i)) / 2
			t.Set(i, j, v)
			t.Set(j, i, v)
		}
	}
	tvals, tvecs := JacobiEig(t)
	ritz := q.MatMul(tvecs, workers)
	topEigNS.Since(startAll)
	return tvals, ritz
}
