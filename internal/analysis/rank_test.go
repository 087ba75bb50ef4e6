package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpearman(t *testing.T) {
	// Monotone transform preserves ranks exactly.
	x := []float64{1, 5, 3, 9, 7}
	y := []float64{10, 50, 30, 90, 70}
	if s := Spearman(x, y); math.Abs(s-1) > 1e-12 {
		t.Errorf("Spearman = %v, want 1", s)
	}
	rev := []float64{90, 50, 70, 10, 30}
	if s := Spearman(x, rev); math.Abs(s+1) > 1e-12 {
		t.Errorf("reversed Spearman = %v, want -1", s)
	}
	if s := Spearman(x, []float64{1}); s != 0 {
		t.Errorf("mismatched lengths = %v", s)
	}
	// Ties share mean ranks; all-equal series is degenerate → 0.
	if s := Spearman(x, []float64{2, 2, 2, 2, 2}); s != 0 {
		t.Errorf("constant series Spearman = %v", s)
	}
}

// Property: Spearman is invariant under any strictly increasing transform.
func TestSpearmanMonotoneInvarianceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		base := Spearman(x, y)
		yT := make([]float64, n)
		for i := range y {
			yT[i] = math.Exp(y[i]) // strictly increasing
		}
		return math.Abs(Spearman(x, yT)-base) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
