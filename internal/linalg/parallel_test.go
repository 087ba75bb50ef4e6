package linalg

import (
	"math/rand"
	"testing"

	"linkpred/internal/graph"
)

var invarianceWorkers = []int{1, 2, 4, 7}

func randomTestGraph(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n)), Time: int64(i),
		}
	}
	return graph.Build(n, edges)
}

// The parallel backend's contract is bit-identical results at any worker
// count: rows are owned by exactly one worker and each row's accumulation
// order is unchanged, so no float operation reorders.

func TestMulVecWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := AdjacencyOf(randomTestGraph(rng, 300, 1500))
	x := make([]float64, a.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := make([]float64, a.N)
	a.MulVec(x, ref, 1)
	for _, w := range invarianceWorkers[1:] {
		y := make([]float64, a.N)
		a.MulVec(x, y, w)
		for i := range y {
			if y[i] != ref[i] {
				t.Fatalf("workers=%d: y[%d] = %v, want %v", w, i, y[i], ref[i])
			}
		}
	}
}

func TestMulDenseWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := AdjacencyOf(randomTestGraph(rng, 250, 1200))
	x := NewDense(a.N, 9)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	ref := NewDense(a.N, 9)
	a.MulDense(x, ref, 1)
	for _, w := range invarianceWorkers[1:] {
		y := NewDense(a.N, 9)
		a.MulDense(x, y, w)
		for i := range y.Data {
			if y.Data[i] != ref.Data[i] {
				t.Fatalf("workers=%d: element %d = %v, want %v", w, i, y.Data[i], ref.Data[i])
			}
		}
	}
}

func TestMatMulWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Tall-skinny times small (the ALS shape) plus a short-wide product that
	// crosses the low fan-out threshold.
	shapes := [][3]int{{400, 8, 8}, {8, 400, 80}}
	for _, s := range shapes {
		a := NewDense(s[0], s[1])
		b := NewDense(s[1], s[2])
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		ref := a.MatMul(b, 1)
		for _, w := range invarianceWorkers[1:] {
			got := a.MatMul(b, w)
			for i := range got.Data {
				if got.Data[i] != ref.Data[i] {
					t.Fatalf("shape %v workers=%d: element %d = %v, want %v",
						s, w, i, got.Data[i], ref.Data[i])
				}
			}
		}
	}
}

func TestTopEigWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := AdjacencyOf(randomTestGraph(rng, 200, 900))
	refVals, refVecs := a.TopEig(6, 40, 42, 1)
	for _, w := range invarianceWorkers[1:] {
		vals, vecs := a.TopEig(6, 40, 42, w)
		for i := range refVals {
			if vals[i] != refVals[i] {
				t.Fatalf("workers=%d: eigenvalue %d = %v, want %v", w, i, vals[i], refVals[i])
			}
		}
		for i := range refVecs.Data {
			if vecs.Data[i] != refVecs.Data[i] {
				t.Fatalf("workers=%d: eigenvector element %d differs", w, i)
			}
		}
	}
}

// The sparse products at the shapes the latent predictors use them: a
// rank-32 block (Katz's eigensolve) over a graph spanning many row pages.

func BenchmarkMulDense(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	a := AdjacencyOf(randomTestGraph(rng, 20000, 200000))
	x, y := NewDense(a.N, 32), NewDense(a.N, 32)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulDense(x, y, 1)
	}
}

var eigSink []float64

func BenchmarkTopEig(b *testing.B) {
	a := AdjacencyOf(randomTestGraph(rand.New(rand.NewSource(17)), 5000, 50000))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eigSink, _ = a.TopEig(32, 10, 1, 1)
	}
}
