package predict

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"linkpred/internal/graph"
	"linkpred/internal/linalg"
)

// denseAdj returns the dense adjacency matrix of g.
func denseAdj(g *graph.Graph) *linalg.Dense {
	n := g.NumNodes()
	a := linalg.NewDense(n, n)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			a.Set(u, int(v), 1)
		}
	}
	return a
}

func TestSPScorePairs(t *testing.T) {
	g := kite()
	opt := DefaultOptions()
	pairs := []Pair{{U: 0, V: 3}, {U: 0, V: 4}, {U: 1, V: 4}}
	scores := SP.ScorePairs(g, pairs, opt)
	want := []float64{-2, -3, -2}
	for i, w := range want {
		if scores[i] != w {
			t.Errorf("SP score %d = %v, want %v", i, scores[i], w)
		}
	}
	// Disconnected node: beyond horizon.
	g2 := graph.Build(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	s := SP.ScorePairs(g2, []Pair{{U: 0, V: 2}}, opt)
	if s[0] != float64(-(opt.SPMaxDepth + 2)) {
		t.Errorf("unreachable SP score = %v", s[0])
	}
}

func TestSPPredictIsTwoHop(t *testing.T) {
	g := randomGraph(5, 50, 150)
	twoHop := map[uint64]bool{}
	twoHopPairs(g, func(u, v graph.NodeID) { twoHop[PairKey(u, v)] = true })
	k := 10
	if len(twoHop) <= k {
		t.Skip("fixture too small")
	}
	for _, p := range SP.Predict(g, k, DefaultOptions()) {
		if !twoHop[p.Key()] {
			t.Errorf("SP predicted non-2-hop pair %+v with %d 2-hop pairs available", p, len(twoHop))
		}
		if p.Score != -2 {
			t.Errorf("SP score = %v, want -2", p.Score)
		}
	}
}

// Property: LP scores equal the dense A² + εA³ entries.
func TestLPMatchesDenseQuick(t *testing.T) {
	opt := DefaultOptions()
	f := func(seed int64) bool {
		g := randomGraph(seed, 12+int(seed%7+7)%7, 30)
		a := denseAdj(g)
		a2 := linalg.MatMul(a, a)
		a3 := linalg.MatMul(a2, a)
		n := g.NumNodes()
		var pairs []Pair
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, Pair{U: graph.NodeID(u), V: graph.NodeID(v)})
			}
		}
		scores := LP.ScorePairs(g, pairs, opt)
		for i, p := range pairs {
			want := a2.At(int(p.U), int(p.V)) + opt.LPEpsilon*a3.At(int(p.U), int(p.V))
			if math.Abs(scores[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: LRW scores match dense m-step transition matrix powers.
func TestLRWMatchesDenseQuick(t *testing.T) {
	opt := DefaultOptions()
	f := func(seed int64) bool {
		g := randomGraph(seed, 14, 40)
		n := g.NumNodes()
		// Dense transition matrix P[u][v] = 1/deg(u) for v in Γ(u).
		p := linalg.NewDense(n, n)
		for u := 0; u < n; u++ {
			d := g.Degree(graph.NodeID(u))
			if d == 0 {
				continue
			}
			for _, v := range g.Neighbors(graph.NodeID(u)) {
				p.Set(u, int(v), 1/float64(d))
			}
		}
		pm := p.Clone()
		for s := 1; s < opt.LRWSteps; s++ {
			pm = linalg.MatMul(pm, p)
		}
		edges := float64(g.NumEdges())
		var pairs []Pair
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, Pair{U: graph.NodeID(u), V: graph.NodeID(v)})
			}
		}
		scores := LRW.ScorePairs(g, pairs, opt)
		for i, pr := range pairs {
			want := float64(g.Degree(pr.U)) * pm.At(int(pr.U), int(pr.V)) / edges
			if math.Abs(scores[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestLRWReversibility validates the identity the implementation relies on:
// deg(u) π_uv(m) = deg(v) π_vu(m).
func TestLRWReversibility(t *testing.T) {
	g := randomGraph(8, 20, 60)
	n := g.NumNodes()
	scratch := newWalkScratch(n)
	for u := graph.NodeID(0); u < 6; u++ {
		du := float64(g.Degree(u))
		if du == 0 {
			continue
		}
		distU := lrwDistribution(g, u, 3, scratch)
		vals := map[graph.NodeID]float64{}
		for _, v := range distU.touched {
			vals[v] = distU.val[v]
		}
		for v, puv := range vals {
			dv := float64(g.Degree(v))
			if dv == 0 {
				continue
			}
			distV := lrwDistribution(g, v, 3, scratch)
			pvu := distV.val[u]
			if math.Abs(du*puv-dv*pvu) > 1e-9 {
				t.Fatalf("reversibility violated: deg(%d)*π=%v vs deg(%d)*π=%v", u, du*puv, v, dv*pvu)
			}
			break // distV reused cur/next, invalidating distU; one check per u
		}
	}
}

// pprExact computes personalized PageRank by dense power iteration.
func pprExact(g *graph.Graph, u graph.NodeID, alpha float64) []float64 {
	n := g.NumNodes()
	p := make([]float64, n)
	r := make([]float64, n)
	r[u] = 1
	next := make([]float64, n)
	for it := 0; it < 400; it++ {
		for i := range next {
			next[i] = 0
		}
		for x := 0; x < n; x++ {
			if r[x] == 0 {
				continue
			}
			d := g.Degree(graph.NodeID(x))
			if d == 0 {
				p[x] += r[x]
				continue
			}
			p[x] += alpha * r[x]
			share := (1 - alpha) * r[x] / float64(d)
			for _, y := range g.Neighbors(graph.NodeID(x)) {
				next[y] += share
			}
		}
		r, next = next, r
	}
	return p
}

func TestPPRMatchesPowerIteration(t *testing.T) {
	g := randomGraph(4, 25, 70)
	opt := DefaultOptions()
	opt.PPREps = 1e-9 // tight push for comparison
	n := g.NumNodes()
	scratch := newPPRScratch(n)
	for _, u := range []graph.NodeID{0, 5, 10} {
		if g.Degree(u) == 0 {
			continue
		}
		pprPush(g, u, opt.PPRAlpha, opt.PPREps, scratch)
		exact := pprExact(g, u, opt.PPRAlpha)
		for v := 0; v < n; v++ {
			if math.Abs(scratch.p.val[v]-exact[v]) > 1e-4 {
				t.Fatalf("push from %d at %d: %v vs exact %v", u, v, scratch.p.val[v], exact[v])
			}
		}
	}
}

func TestPPRScorePairsSymmetric(t *testing.T) {
	g := randomGraph(6, 30, 80)
	opt := DefaultOptions()
	pairs := []Pair{{U: 1, V: 7}, {U: 2, V: 9}}
	rev := []Pair{{U: 7, V: 1}, {U: 9, V: 2}}
	a := PPR.ScorePairs(g, pairs, opt)
	b := PPR.ScorePairs(g, rev, opt)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Errorf("PPR score not symmetric: %v vs %v", a[i], b[i])
		}
	}
}

// katzExact computes the full Katz matrix (I - βA)⁻¹ - I via the Neumann
// series, which converges for β < 1/λ_max.
func katzExact(g *graph.Graph, beta float64, terms int) *linalg.Dense {
	a := denseAdj(g)
	n := g.NumNodes()
	sum := linalg.NewDense(n, n)
	term := a.Clone()
	weight := beta
	for l := 1; l <= terms; l++ {
		for i := range sum.Data {
			sum.Data[i] += weight * term.Data[i]
		}
		term = linalg.MatMul(term, a)
		weight *= beta
	}
	return sum
}

func TestKatzLRFullRankMatchesExact(t *testing.T) {
	g := randomGraph(7, 16, 40)
	n := g.NumNodes()
	opt := DefaultOptions()
	opt.KatzRank = n // full rank → approximation becomes exact
	opt.KatzEigIters = 200
	exact := katzExact(g, opt.KatzBeta, 60)
	var pairs []Pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, Pair{U: graph.NodeID(u), V: graph.NodeID(v)})
		}
	}
	scores := KatzLR.ScorePairs(g, pairs, opt)
	for i, p := range pairs {
		want := exact.At(int(p.U), int(p.V))
		if math.Abs(scores[i]-want) > 1e-6 {
			t.Fatalf("Katz(%d,%d) = %v, want %v", p.U, p.V, scores[i], want)
		}
	}
}

// baGraph builds a preferential-attachment graph, whose skewed spectrum is
// the regime low-rank approximations are designed for (social networks).
func baGraph(seed int64, n, perNode int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	endpoints := []graph.NodeID{0, 1}
	edges = append(edges, graph.Edge{U: 0, V: 1})
	for v := graph.NodeID(2); int(v) < n; v++ {
		for e := 0; e < perNode; e++ {
			u := endpoints[rng.Intn(len(endpoints))]
			if u == v {
				continue
			}
			edges = append(edges, graph.Edge{U: u, V: v, Time: int64(len(edges))})
			endpoints = append(endpoints, u, v)
		}
	}
	return graph.Build(n, edges)
}

func TestKatzSCCorrelatesWithExact(t *testing.T) {
	g := baGraph(9, 40, 3)
	n := g.NumNodes()
	opt := DefaultOptions()
	opt.KatzLandmarks = n // all nodes as landmarks → near-exact Nyström
	exact := katzExact(g, opt.KatzBeta, opt.KatzMaxLen)
	var pairs []Pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
				pairs = append(pairs, Pair{U: graph.NodeID(u), V: graph.NodeID(v)})
			}
		}
	}
	scores := KatzSC.ScorePairs(g, pairs, opt)
	// With the full landmark set, the Nyström reconstruction should be very
	// close; require high rank agreement via Pearson correlation.
	var ex []float64
	for _, p := range pairs {
		ex = append(ex, exact.At(int(p.U), int(p.V)))
	}
	if c := pearson(scores, ex); c < 0.98 {
		t.Fatalf("KatzSC full-landmark correlation = %v, want >= 0.98", c)
	}
	// With fewer landmarks the approximation degrades sharply — Katz_sc is
	// the cheap, much less accurate Katz variant, exactly the ordering the
	// paper reports (§4.2, Table 4).
	opt.KatzLandmarks = 20
	scSub := pearson(KatzSC.ScorePairs(g, pairs, opt), ex)
	if scSub >= 0.9 {
		t.Fatalf("20-landmark Katz_sc corr %v suspiciously high; expected a lossy approximation", scSub)
	}
}

// TestKatzLRRankMonotone verifies that the low-rank Katz approximation
// approaches the exact Katz scores as the rank grows. (At low rank the
// method degenerates into latent-factor scoring — structured, but far from
// the exact path counts; that is inherent to Katz_lr, not a bug.)
func TestKatzLRRankMonotone(t *testing.T) {
	g := baGraph(9, 40, 3)
	n := g.NumNodes()
	opt := DefaultOptions()
	opt.KatzEigIters = 200
	exact := katzExact(g, opt.KatzBeta, 40)
	var pairs []Pair
	var ex []float64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
				pairs = append(pairs, Pair{U: graph.NodeID(u), V: graph.NodeID(v)})
				ex = append(ex, exact.At(u, v))
			}
		}
	}
	corr := func(rank int) float64 {
		opt.KatzRank = rank
		return pearson(KatzLR.ScorePairs(g, pairs, opt), ex)
	}
	low, full := corr(10), corr(n)
	if full < 0.999 {
		t.Fatalf("full-rank Katz corr = %v, want ~1", full)
	}
	if full <= low {
		t.Fatalf("rank monotonicity violated: full %v <= low %v", full, low)
	}
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

func TestRescalReconstruction(t *testing.T) {
	// Two dense communities: factorization should reconstruct the block
	// structure, scoring within-community unconnected pairs above
	// cross-community pairs.
	var edges []graph.Edge
	rng := rand.New(rand.NewSource(2))
	for c := 0; c < 2; c++ {
		base := graph.NodeID(c * 10)
		for i := 0; i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				if rng.Float64() < 0.8 {
					edges = append(edges, graph.Edge{U: base + graph.NodeID(i), V: base + graph.NodeID(j)})
				}
			}
		}
	}
	g := graph.Build(20, edges)
	opt := DefaultOptions()
	opt.RescalRank = 4
	opt.RescalIters = 30
	opt.RescalLambda = 0.1 // light ridge: this test exercises the fit itself
	var within, across []Pair
	for u := 0; u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			if g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
				continue
			}
			p := Pair{U: graph.NodeID(u), V: graph.NodeID(v)}
			if (u < 10) == (v < 10) {
				within = append(within, p)
			} else {
				across = append(across, p)
			}
		}
	}
	ws := Rescal.ScorePairs(g, within, opt)
	as := Rescal.ScorePairs(g, across, opt)
	avg := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if avg(ws) <= avg(as) {
		t.Fatalf("Rescal within-community avg %v <= across avg %v", avg(ws), avg(as))
	}
}

func TestRescalScoreSymmetric(t *testing.T) {
	g := randomGraph(11, 25, 60)
	opt := DefaultOptions()
	a := Rescal.ScorePairs(g, []Pair{{U: 2, V: 9}}, opt)
	b := Rescal.ScorePairs(g, []Pair{{U: 9, V: 2}}, opt)
	if math.Abs(a[0]-b[0]) > 1e-9 {
		t.Fatalf("Rescal not symmetric: %v vs %v", a[0], b[0])
	}
}

// TestPAExactTopK cross-checks the frontier-heap against brute force on
// random graphs, including the connected-pair skipping.
func TestPAExactTopKQuick(t *testing.T) {
	opt := DefaultOptions()
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 50)
		k := 6
		pred := PA.Predict(g, k, opt)
		brute := bruteForceTop(g, PA, k, opt)
		if len(pred) != len(brute) {
			return false
		}
		for i := range pred {
			if pred[i] != brute[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalCandidatesNoDuplicates(t *testing.T) {
	g := randomGraph(13, 60, 150)
	opt := DefaultOptions()
	opt.TopDegreeBlock = 10
	opt.RandomCandidates = 2000
	seen := map[uint64]bool{}
	globalCandidates(g, opt, func(u, v graph.NodeID) {
		if u == v {
			t.Fatalf("self pair emitted: %d", u)
		}
		if g.HasEdge(u, v) {
			t.Fatalf("connected pair emitted: (%d,%d)", u, v)
		}
		key := PairKey(u, v)
		if seen[key] {
			t.Fatalf("duplicate candidate (%d,%d)", u, v)
		}
		seen[key] = true
	})
	if len(seen) == 0 {
		t.Fatal("no candidates emitted")
	}
	// Every unconnected 2-hop pair must be covered.
	twoHopPairs(g, func(u, v graph.NodeID) {
		if !seen[PairKey(u, v)] {
			t.Fatalf("2-hop pair (%d,%d) missing from candidates", u, v)
		}
	})
}

// TestKatzExactMatchesDense validates the truncated-exact comparator
// against the dense Neumann series.
func TestKatzExactMatchesDense(t *testing.T) {
	g := randomGraph(12, 18, 50)
	opt := DefaultOptions()
	exact := katzExact(g, opt.KatzBeta, opt.KatzMaxLen)
	n := g.NumNodes()
	var pairs []Pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, Pair{U: graph.NodeID(u), V: graph.NodeID(v)})
		}
	}
	scores := KatzExact.ScorePairs(g, pairs, opt)
	for i, p := range pairs {
		want := exact.At(int(p.U), int(p.V))
		if math.Abs(scores[i]-want) > 1e-12 {
			t.Fatalf("KatzExact(%d,%d) = %v, want %v", p.U, p.V, scores[i], want)
		}
	}
	// Predict agrees with brute force over positive-scored pairs.
	pred := KatzExact.Predict(g, 6, opt)
	brute := bruteForceTop(g, KatzExact, 6, opt)
	for i := range brute {
		if brute[i].Score <= 0 {
			break
		}
		if i < len(pred) && pred[i] != brute[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, pred[i], brute[i])
		}
	}
}

// TestComparatorsRegistry: the comparator (KatzExact) resolves by name but
// stays out of the evaluated set, and the one registry table is what ByName
// serves — every entry resolves to itself, names are unique, the exported
// sets are its leading runs, and a lookup allocates nothing.
func TestComparatorsRegistry(t *testing.T) {
	if a, err := ByName("KatzExact"); err != nil || a != KatzExact {
		t.Fatalf("ByName(KatzExact) = %v, %v", a, err)
	}
	for _, core := range All() {
		if core.Name() == KatzExact.Name() {
			t.Errorf("comparator %s also in All()", core.Name())
		}
	}
	seen := map[string]bool{}
	for _, a := range registry {
		if seen[a.Name()] {
			t.Errorf("registry lists %s twice", a.Name())
		}
		seen[a.Name()] = true
		if got, err := ByName(a.Name()); err != nil || got != a {
			t.Errorf("ByName(%s) = %v, %v", a.Name(), got, err)
		}
	}
	if want := append(All(), Extensions()...); !slices.Equal(registry[:len(want)], want) || len(registry) != len(want)+1 {
		t.Errorf("registry is not All() + Extensions() + KatzExact")
	}
	if _, err := ByName("nope"); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("ByName(nope) = %v, want ErrUnknownAlgorithm", err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ByName("Rescal") }); n != 0 {
		t.Errorf("ByName allocates %v times per lookup, want 0", n)
	}
}
