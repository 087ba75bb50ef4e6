// Package linalg implements the small linear-algebra substrate the latent
// metric-based predictors need: dense matrices, a snapshot's sparse
// adjacency matrix read in place, Cholesky solves for ALS (Rescal), a Jacobi eigensolver for small
// symmetric systems, and rank-r subspace iteration used by the low-rank Katz
// approximation. Everything is from scratch on the standard library.
package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"linkpred/internal/obs"
	"linkpred/internal/par"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zeroed r x c matrix.
func NewDense(r, c int) *Dense {
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a shared slice.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// MatMul returns a * b, computing disjoint row blocks of the product on
// workers goroutines. Each output row accumulates over k in the same order
// as a serial run, so the product is bit-identical at any worker count.
func (a *Dense) MatMul(b *Dense, workers int) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MatMul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var start time.Time
	track := obs.Enabled()
	if track {
		start = time.Now()
	}
	out := NewDense(a.Rows, b.Cols)
	// Short-but-wide products (XᵀX in ALS: rank rows, each costing n·rank
	// flops) would fall under the generic fan-out threshold despite heavy
	// per-row work, so the threshold drops when rows are individually large.
	minRows := par.ShardMin
	if a.Cols*b.Cols >= 1<<12 {
		minRows = 2
	}
	par.ShardRangeMin(a.Rows, workers, minRows, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for k, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.Row(k)
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
	if track {
		obs.GetHistogram("linalg/mat_mul_ns").Observe(time.Since(start).Nanoseconds())
	}
	return out
}

// MatMul returns a * b on the calling goroutine.
func MatMul(a, b *Dense) *Dense { return a.MatMul(b, 1) }

// AddDiag adds v to every diagonal element in place (ridge regularization).
func (m *Dense) AddDiag(v float64) {
	n := min(m.Rows, m.Cols)
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += v
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// CholSolve solves the SPD system a * x = b via Cholesky factorization,
// overwriting neither input. a must be square and b must have matching rows.
// A tiny jitter is added when the factorization encounters a non-positive
// pivot, which keeps ridge-regularized ALS robust.
func CholSolve(a, b *Dense) *Dense {
	n := a.Rows
	if a.Cols != n || b.Rows != n {
		panic(fmt.Sprintf("linalg: CholSolve shapes %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	l := a.Clone()
	for attempt := 0; ; attempt++ {
		if cholesky(l) {
			break
		}
		if attempt > 6 {
			panic("linalg: CholSolve failed on a matrix that stays non-SPD under jitter")
		}
		l = a.Clone()
		l.AddDiag(math.Pow(10, float64(attempt-8)))
	}
	// Solve L y = b (forward), then L^T x = y (backward), column by column.
	x := b.Clone()
	for col := 0; col < b.Cols; col++ {
		for i := 0; i < n; i++ {
			s := x.At(i, col)
			for k := 0; k < i; k++ {
				s -= l.At(i, k) * x.At(k, col)
			}
			x.Set(i, col, s/l.At(i, i))
		}
		for i := n - 1; i >= 0; i-- {
			s := x.At(i, col)
			for k := i + 1; k < n; k++ {
				s -= l.At(k, i) * x.At(k, col)
			}
			x.Set(i, col, s/l.At(i, i))
		}
	}
	return x
}

// cholesky factors a in place into its lower-triangular factor, returning
// false if a pivot is non-positive.
func cholesky(a *Dense) bool {
	n := a.Rows
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= a.At(j, k) * a.At(j, k)
		}
		if d <= 0 {
			return false
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= a.At(i, k) * a.At(j, k)
			}
			a.Set(i, j, s/d)
		}
		for i := 0; i < j; i++ {
			a.Set(i, j, 0)
		}
	}
	return true
}

// JacobiEig computes the full eigendecomposition of a small symmetric matrix
// using cyclic Jacobi rotations, returning eigenvalues in descending order
// and the corresponding orthonormal eigenvectors as matrix columns.
func JacobiEig(a *Dense) (vals []float64, vecs *Dense) {
	n := a.Rows
	if a.Cols != n {
		panic("linalg: JacobiEig needs a square matrix")
	}
	m := a.Clone()
	v := NewDense(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	for sweep := 0; sweep < 64; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-15 {
					continue
				}
				theta := (m.At(q, q) - m.At(p, p)) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(m, v, p, q, c, s)
			}
		}
	}
	// Extract and sort.
	type pair struct {
		val float64
		idx int
	}
	ps := make([]pair, n)
	for i := range ps {
		ps[i] = pair{val: m.At(i, i), idx: i}
	}
	for i := 0; i < n; i++ { // simple selection sort, n is small
		best := i
		for j := i + 1; j < n; j++ {
			if ps[j].val > ps[best].val {
				best = j
			}
		}
		ps[i], ps[best] = ps[best], ps[i]
	}
	vals = make([]float64, n)
	vecs = NewDense(n, n)
	for k, p := range ps {
		vals[k] = p.val
		for i := 0; i < n; i++ {
			vecs.Set(i, k, v.At(i, p.idx))
		}
	}
	return vals, vecs
}

// rotate applies the Jacobi rotation (c, s) in the (p, q) plane to m and
// accumulates it in v.
func rotate(m, v *Dense, p, q int, c, s float64) {
	n := m.Rows
	for i := 0; i < n; i++ {
		mip, miq := m.At(i, p), m.At(i, q)
		m.Set(i, p, c*mip-s*miq)
		m.Set(i, q, s*mip+c*miq)
	}
	for j := 0; j < n; j++ {
		mpj, mqj := m.At(p, j), m.At(q, j)
		m.Set(p, j, c*mpj-s*mqj)
		m.Set(q, j, s*mpj+c*mqj)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

// qrRows replaces the rows of m with an orthonormal basis of their span
// (modified Gram-Schmidt over contiguous rows — the transposed view TopEig
// keeps its iterate in, which turns the strided column walks of the former
// column-major variant into sequential memory scans). Near-dependent rows
// are replaced by fresh random directions drawn from rng so subspace
// iteration never collapses. The float operation sequence per basis vector
// is exactly the former column-major one, so results are bit-identical.
func qrRows(m *Dense, rng *rand.Rand) {
	for j := 0; j < m.Rows; j++ {
		row := m.Row(j)
		for attempt := 0; ; attempt++ {
			for k := 0; k < j; k++ {
				prev := m.Row(k)
				var dot float64
				for i := range row {
					dot += row[i] * prev[i]
				}
				for i := range row {
					row[i] -= dot * prev[i]
				}
			}
			norm := Norm2(row)
			if norm > 1e-10 {
				for i := range row {
					row[i] /= norm
				}
				break
			}
			if attempt > 4 {
				// Degenerate subspace smaller than the basis; zero the row.
				for i := range row {
					row[i] = 0
				}
				break
			}
			for i := range row {
				row[i] = rng.NormFloat64()
			}
		}
	}
}
