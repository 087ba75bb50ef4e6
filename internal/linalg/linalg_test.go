package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"linkpred/internal/graph"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatMul(t *testing.T) {
	a := &Dense{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &Dense{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestTranspose(t *testing.T) {
	a := &Dense{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T shape = %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("T data = %v", at.Data)
	}
}

func TestCholSolveIdentity(t *testing.T) {
	a := NewDense(3, 3)
	for i := 0; i < 3; i++ {
		a.Set(i, i, 2)
	}
	b := &Dense{Rows: 3, Cols: 1, Data: []float64{2, 4, 6}}
	x := CholSolve(a, b)
	for i, want := range []float64{1, 2, 3} {
		if !almostEq(x.At(i, 0), want, 1e-12) {
			t.Fatalf("x = %v", x.Data)
		}
	}
}

// Property: CholSolve(A, A*x) recovers x for random SPD A = M^T M + I.
func TestCholSolveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m := NewDense(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		a := MatMul(m.T(), m)
		a.AddDiag(1)
		x := NewDense(n, 2)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		b := MatMul(a, x)
		got := CholSolve(a, b)
		for i := range x.Data {
			if !almostEq(got.Data[i], x.Data[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestJacobiEigDiagonal(t *testing.T) {
	a := NewDense(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 5)
	a.Set(2, 2, 3)
	vals, vecs := JacobiEig(a)
	want := []float64{5, 3, 1}
	for i, w := range want {
		if !almostEq(vals[i], w, 1e-10) {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	// Eigenvector for eigenvalue 5 should be e_1 up to sign.
	if !almostEq(math.Abs(vecs.At(1, 0)), 1, 1e-10) {
		t.Fatalf("vecs col 0 = %v %v %v", vecs.At(0, 0), vecs.At(1, 0), vecs.At(2, 0))
	}
}

// Property: JacobiEig reconstructs A = V diag(vals) V^T for random symmetric A.
func TestJacobiEigQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs := JacobiEig(a)
		// Reconstruct.
		d := NewDense(n, n)
		for i, v := range vals {
			d.Set(i, i, v)
		}
		recon := MatMul(MatMul(vecs, d), vecs.T())
		for i := range a.Data {
			if !almostEq(recon.Data[i], a.Data[i], 1e-7) {
				return false
			}
		}
		// Sorted descending.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func ringGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{U: graph.NodeID(i), V: graph.NodeID((i + 1) % n), Time: int64(i)}
	}
	return graph.Build(n, edges)
}

// mulVec is the serial reference y = A x the products are checked against:
// each row folds its neighbors in ascending order.
func mulVec(a CSR, x, y []float64) {
	for i := range y {
		var s float64
		for _, c := range a.g.Neighbors(graph.NodeID(i)) {
			s += x[c]
		}
		y[i] = s
	}
}

func TestCSRFromGraph(t *testing.T) {
	g := ringGraph(5)
	a := AdjacencyOf(g)
	if a.N != 5 {
		t.Fatalf("CSR dims: N=%d", a.N)
	}
	x := &Dense{Rows: 5, Cols: 1, Data: []float64{1, 2, 3, 4, 5}}
	y := NewDense(5, 1)
	a.MulDense(x, y, 1)
	// Node 0 neighbors are 1 and 4: y[0] = 2 + 5.
	if y.At(0, 0) != 7 {
		t.Fatalf("MulDense y = %v", y.Data)
	}
}

func TestMulDenseMatchesMulVec(t *testing.T) {
	g := ringGraph(8)
	a := AdjacencyOf(g)
	x := NewDense(8, 3)
	rng := rand.New(rand.NewSource(1))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := NewDense(8, 3)
	a.MulDense(x, y, 1)
	col := make([]float64, 8)
	out := make([]float64, 8)
	for j := 0; j < 3; j++ {
		for i := 0; i < 8; i++ {
			col[i] = x.At(i, j)
		}
		mulVec(a, col, out)
		for i := 0; i < 8; i++ {
			if !almostEq(out[i], y.At(i, j), 1e-12) {
				t.Fatalf("col %d row %d: %v vs %v", j, i, out[i], y.At(i, j))
			}
		}
	}
}

func TestTopEigStar(t *testing.T) {
	// Star graph K_{1,n-1}: adjacency eigenvalues ±sqrt(n-1), rest 0.
	n := 10
	edges := make([]graph.Edge, n-1)
	for i := 1; i < n; i++ {
		edges[i-1] = graph.Edge{U: 0, V: graph.NodeID(i), Time: int64(i)}
	}
	g := graph.Build(n, edges)
	a := AdjacencyOf(g)
	vals, vecs := a.TopEig(2, 60, 1, 1)
	want := math.Sqrt(float64(n - 1))
	if !almostEq(vals[0], want, 1e-6) {
		t.Fatalf("dominant eigenvalue = %v, want %v", vals[0], want)
	}
	if !almostEq(vals[1], -want, 1e-6) {
		t.Fatalf("second eigenvalue = %v, want %v", vals[1], -want)
	}
	// Columns orthonormal.
	var dot, n0 float64
	for i := 0; i < n; i++ {
		dot += vecs.At(i, 0) * vecs.At(i, 1)
		n0 += vecs.At(i, 0) * vecs.At(i, 0)
	}
	if !almostEq(dot, 0, 1e-6) || !almostEq(n0, 1, 1e-6) {
		t.Fatalf("eigenvectors not orthonormal: dot=%v norm=%v", dot, n0)
	}
}

// Property: for random graphs, TopEig residuals ||A v - λ v|| are small for
// the dominant pair.
func TestTopEigResidualQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		var edges []graph.Edge
		for i := 0; i < 4*n; i++ {
			edges = append(edges, graph.Edge{
				U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n)), Time: int64(i),
			})
		}
		g := graph.Build(n, edges)
		a := AdjacencyOf(g)
		vals, vecs := a.TopEig(3, 80, seed, 1)
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = vecs.At(i, 0)
		}
		av := make([]float64, n)
		mulVec(a, v, av)
		var res float64
		for i := 0; i < n; i++ {
			d := av[i] - vals[0]*v[i]
			res += d * d
		}
		return math.Sqrt(res) < 1e-3*math.Max(1, math.Abs(vals[0]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTopEigEdgeCases(t *testing.T) {
	g := ringGraph(4)
	a := AdjacencyOf(g)
	vals, vecs := a.TopEig(0, 10, 1, 1)
	if vals != nil || vecs.Cols != 0 {
		t.Error("r=0 should return empty decomposition")
	}
	vals, _ = a.TopEig(10, 40, 1, 2) // r > n clamps
	if len(vals) != 4 {
		t.Errorf("clamped rank = %d, want 4", len(vals))
	}
}

func TestPanicPaths(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	a := NewDense(2, 3)
	b := NewDense(2, 2)
	expectPanic("MatMul shape", func() { MatMul(a, b) })
	expectPanic("CholSolve shape", func() { CholSolve(a, b) })
	expectPanic("JacobiEig non-square", func() { JacobiEig(a) })
	// CholSolve on an irreparably indefinite matrix panics after jitter.
	neg := NewDense(2, 2)
	neg.Set(0, 0, -1e6)
	neg.Set(1, 1, -1e6)
	expectPanic("CholSolve indefinite", func() { CholSolve(neg, NewDense(2, 1)) })
}

func TestDenseHelpers(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 5)
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.At(0, 1) != 5 {
		t.Error("Clone aliases the original")
	}
	m.AddDiag(3)
	if m.At(0, 0) != 3 || m.At(1, 1) != 3 {
		t.Errorf("AddDiag: %v", m.Data)
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Error("Norm2")
	}
	row := m.Row(0)
	row[0] = 42
	if m.At(0, 0) != 42 {
		t.Error("Row should share storage")
	}
}
