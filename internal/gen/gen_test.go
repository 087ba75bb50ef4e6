package gen

import (
	"strings"
	"testing"

	"linkpred/internal/analysis"
	"linkpred/internal/graph"
)

func TestValidate(t *testing.T) {
	ok := Facebook(1)
	if err := ok.Validate(); err != nil {
		t.Fatalf("facebook preset invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"days", func(c *Config) { c.Days = 0 }},
		{"initial nodes", func(c *Config) { c.InitialNodes = 1 }},
		{"final nodes", func(c *Config) { c.FinalNodes = c.InitialNodes - 1 }},
		{"final edges", func(c *Config) { c.FinalEdges = c.InitialEdges - 1 }},
		{"mix", func(c *Config) { c.PTriad = 0.9; c.PPref = 0.9 }},
		{"reuse", func(c *Config) { c.PActiveReuse = 1.5 }},
		{"supernodes", func(c *Config) { c.SupernodeCount = c.InitialNodes + 1 }},
		{"too dense init", func(c *Config) { c.InitialNodes = 4; c.InitialEdges = 10 }},
		{"too dense final", func(c *Config) { c.FinalNodes = 20; c.FinalEdges = 150 }},
	}
	for _, tc := range cases {
		cfg := Facebook(1)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Facebook(42).Scaled(0.15)
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("non-deterministic sizes: %d/%d vs %d/%d",
			a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
	c := MustGenerate(YouTube(43).Scaled(0.15))
	if c.NumEdges() == a.NumEdges() && c.NumNodes() == a.NumNodes() {
		t.Error("different presets produced identical sizes (suspicious)")
	}
}

func TestGenerateSizes(t *testing.T) {
	for _, cfg := range Presets(7) {
		cfg = cfg.Scaled(0.2)
		tr := MustGenerate(cfg)
		if got, want := tr.NumNodes(), cfg.FinalNodes; got < want*9/10 || got > want*11/10 {
			t.Errorf("%s: nodes = %d, want ≈%d", cfg.Name, got, want)
		}
		if got, want := tr.NumEdges(), cfg.FinalEdges; got < want*9/10 || got > want*11/10 {
			t.Errorf("%s: edges = %d, want ≈%d", cfg.Name, got, want)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		cuts := tr.Cuts(DefaultDelta(cfg))
		if len(cuts) < 15 {
			t.Errorf("%s: only %d snapshots, paper methodology needs >15", cfg.Name, len(cuts))
		}
	}
}

func TestExponentialDailyGrowth(t *testing.T) {
	// Fig. 1 reproduction sanity: daily edge counts in the second half of
	// the trace exceed those of the first half.
	tr := MustGenerate(Renren(11).Scaled(0.2))
	mid := tr.Edges[0].Time + tr.Duration()/2
	first, second := 0, 0
	for _, e := range tr.Edges {
		if e.Time <= 0 {
			continue // seed community
		}
		if e.Time < mid {
			first++
		} else {
			second++
		}
	}
	if second <= first {
		t.Errorf("edge growth not accelerating: first half %d, second half %d", first, second)
	}
}

func TestAssortativitySigns(t *testing.T) {
	fb := MustGenerate(Facebook(3).Scaled(0.25))
	yt := MustGenerate(YouTube(3).Scaled(0.25))
	gFB := fb.SnapshotAtEdge(fb.NumEdges())
	gYT := yt.SnapshotAtEdge(yt.NumEdges())
	aFB := analysis.Assortativity(gFB)
	aYT := analysis.Assortativity(gYT)
	if aYT >= 0 {
		t.Errorf("youtube assortativity = %v, want negative (subscription structure)", aYT)
	}
	if aFB <= aYT {
		t.Errorf("facebook assortativity %v should exceed youtube %v", aFB, aYT)
	}
}

func TestYouTubeSupernodeShare(t *testing.T) {
	cfg := YouTube(5).Scaled(0.25)
	tr := MustGenerate(cfg)
	super := int32(cfg.SupernodeCount)
	touch := 0
	grown := 0
	for _, e := range tr.Edges {
		if e.Time <= 0 {
			continue
		}
		grown++
		if e.U < super || e.V < super {
			touch++
		}
	}
	share := float64(touch) / float64(grown)
	// Paper: >40% of new edges involve the top 0.1% of YouTube nodes.
	if share < 0.30 {
		t.Errorf("supernode edge share = %v, want >= 0.30", share)
	}
	// And the vast majority of nodes stay low degree (~80% with degree <= 3).
	g := tr.SnapshotAtEdge(tr.NumEdges())
	low := 0
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(graph.NodeID(v)) <= 3 {
			low++
		}
	}
	if f := float64(low) / float64(g.NumNodes()); f < 0.55 {
		t.Errorf("low-degree fraction = %v, want >= 0.55", f)
	}
}

func TestLambda2Trends(t *testing.T) {
	// Renren: λ₂ increases with growth; Facebook: decreases (§4.2).
	check := func(cfg Config, wantIncreasing bool) {
		t.Helper()
		tr := MustGenerate(cfg.Scaled(0.25))
		cuts := tr.Cuts(DefaultDelta(cfg.Scaled(0.25)))
		if len(cuts) < 6 {
			t.Fatalf("%s: too few cuts", cfg.Name)
		}
		l2 := func(i int) float64 {
			prev := tr.SnapshotAtEdge(cuts[i].EdgeCount)
			return analysis.Lambda2(prev, tr.NewEdgesBetween(cuts[i], cuts[i+1]))
		}
		// Compare early vs late averages (skip the very first transition,
		// which the paper notes has a spike).
		early := (l2(1) + l2(2)) / 2
		n := len(cuts)
		late := (l2(n-3) + l2(n-2)) / 2
		if wantIncreasing && late <= early {
			t.Errorf("%s: λ₂ early=%v late=%v, want increasing", cfg.Name, early, late)
		}
		if !wantIncreasing && late >= early {
			t.Errorf("%s: λ₂ early=%v late=%v, want decreasing", cfg.Name, early, late)
		}
	}
	check(Renren(21), true)
	check(Facebook(21), false)
}

func TestScaled(t *testing.T) {
	cfg := Renren(1)
	s := cfg.Scaled(0.1)
	if s.FinalNodes >= cfg.FinalNodes || s.FinalEdges >= cfg.FinalEdges {
		t.Errorf("Scaled(0.1) did not shrink: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled config invalid: %v", err)
	}
	tiny := cfg.Scaled(0.0001)
	if tiny.InitialNodes < 16 {
		t.Errorf("scale floor violated: %+v", tiny)
	}
}

func TestScalePresets(t *testing.T) {
	for _, tc := range []struct {
		cfg        Config
		name       string
		finalNodes int
	}{
		{Renren100K(1), "renren-100k", 104000},
		{Renren1M(1), "renren-1m", 1040000},
	} {
		if tc.cfg.Name != tc.name {
			t.Errorf("preset name = %q, want %q", tc.cfg.Name, tc.name)
		}
		if tc.cfg.FinalNodes != tc.finalNodes {
			t.Errorf("%s FinalNodes = %d, want %d", tc.name, tc.cfg.FinalNodes, tc.finalNodes)
		}
		if err := tc.cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", tc.name, err)
		}
		// The distinct Name must still resolve a sane snapshot delta
		// (>15 snapshots, like the paper's rule) through DefaultDelta.
		if d := DefaultDelta(tc.cfg); d <= 0 || tc.cfg.FinalEdges/d < 15 {
			t.Errorf("%s DefaultDelta = %d (%d snapshots)", tc.name, d, tc.cfg.FinalEdges/d)
		}
	}
}

func TestDailyBudget(t *testing.T) {
	b := dailyBudget(100, 1000, 30)
	total := 0
	for _, v := range b {
		if v < 0 {
			t.Fatalf("negative daily budget: %v", b)
		}
		total += v
	}
	if total != 900 {
		t.Fatalf("budget total = %d, want 900", total)
	}
	if b[29] < b[0] {
		t.Errorf("budget not growing: first=%d last=%d", b[0], b[29])
	}
	if got := dailyBudget(100, 100, 10); got[0] != 0 {
		t.Errorf("flat budget should be all zeros, got %v", got)
	}
}

// TestChurnCreatesDormantMass verifies the engagement lifecycle: by the end
// of the trace a large share of older nodes are dormant (idle > 30 days),
// the precondition for the paper's Fig. 8 dormancy-bias observation.
func TestChurnCreatesDormantMass(t *testing.T) {
	cfg := Renren(29).Scaled(0.2)
	tr := MustGenerate(cfg)
	end := tr.Edges[len(tr.Edges)-1].Time
	last := make([]int64, tr.NumNodes())
	for i := range last {
		last[i] = -1 << 62
	}
	for _, e := range tr.Edges {
		last[e.U] = e.Time
		last[e.V] = e.Time
	}
	// Among the oldest half of nodes, a substantial fraction is dormant.
	dormant, total := 0, 0
	for v := 0; v < tr.NumNodes()/2; v++ {
		total++
		if end-last[v] > 30*graph.Day {
			dormant++
		}
	}
	if f := float64(dormant) / float64(total); f < 0.2 {
		t.Errorf("dormant fraction of old nodes = %v, want >= 0.2 (churn missing)", f)
	}
	// Churn disabled: everyone stays comparatively active.
	noChurn := cfg
	noChurn.LifetimeDays = 0
	tr2 := MustGenerate(noChurn)
	end2 := tr2.Edges[len(tr2.Edges)-1].Time
	last2 := make([]int64, tr2.NumNodes())
	for _, e := range tr2.Edges {
		last2[e.U] = e.Time
		last2[e.V] = e.Time
	}
	dormant2, total2 := 0, 0
	for v := 0; v < tr2.NumNodes()/2; v++ {
		total2++
		if end2-last2[v] > 30*graph.Day {
			dormant2++
		}
	}
	if float64(dormant2)/float64(total2) >= float64(dormant)/float64(total) {
		t.Errorf("disabling churn did not reduce dormancy: %d/%d vs %d/%d",
			dormant2, total2, dormant, total)
	}
}

func TestByNameRoundTrips(t *testing.T) {
	for _, want := range []Config{Facebook(3), YouTube(3), Renren(3), Renren100K(3), Renren1M(3)} {
		got, err := ByName(want.Name, 3)
		if err != nil || got != want {
			t.Errorf("ByName(%q) = %+v, %v; want %+v", want.Name, got, err, want)
		}
	}
	_, err := ByName("orkut", 3)
	if err == nil || !strings.Contains(err.Error(), "renren-100k") {
		t.Errorf("ByName(unknown) error = %v; want one listing the preset names", err)
	}
}
