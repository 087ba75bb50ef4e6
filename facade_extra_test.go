package linkpred

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeCSVRoundTrip(t *testing.T) {
	tr, _ := smallTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceCSV(&buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != tr.NumEdges() {
		t.Fatalf("edges = %d, want %d", got.NumEdges(), tr.NumEdges())
	}
	var bin bytes.Buffer
	if _, err := tr.WriteTo(&bin); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadTraceBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if got2.NumEdges() != tr.NumEdges() {
		t.Fatalf("binary edges = %d", got2.NumEdges())
	}
	if _, err := ReadTraceCSV(strings.NewReader("garbage"), "bad"); err == nil {
		t.Error("garbage CSV accepted")
	}
}

func TestFacadeEvalHelpers(t *testing.T) {
	scores := []float64{0.9, 0.1, 0.8}
	labels := []bool{true, false, true}
	if auc := AUC(scores, labels); auc != 1 {
		t.Errorf("AUC = %v", auc)
	}
	pairs := []Pair{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}
	truth := map[uint64]bool{pairs[0].Key(): true, pairs[2].Key(): true}
	ranked := RankLabels(pairs, scores, truth, 1)
	if !ranked[0] || !ranked[1] || ranked[2] {
		t.Errorf("ranked = %v", ranked)
	}
	if ap := AveragePrecision(ranked); ap != 1 {
		t.Errorf("AP = %v", ap)
	}
	if p := PrecisionAtK(ranked, []int{2}); p[0] != 1 {
		t.Errorf("P@2 = %v", p)
	}
	if r := RecallAtK(ranked, []int{1}); r[0] != 0.5 {
		t.Errorf("R@1 = %v", r)
	}
}

func TestFacadeFeatures(t *testing.T) {
	tr, cfg := smallTrace(t)
	cuts := tr.Cuts(SnapshotDelta(cfg))
	g := tr.SnapshotAtEdge(cuts[len(cuts)-1].EdgeCount)
	feats := NetworkFeatures(g, 100, 1)
	names := NetworkFeatureNames()
	if len(feats) != len(names) {
		t.Fatalf("features %d != names %d", len(feats), len(names))
	}
	if feats[0] != float64(g.NumNodes()) {
		t.Errorf("nodes feature = %v", feats[0])
	}
	a := Assortativity(g)
	if a < -1 || a > 1 {
		t.Errorf("assortativity = %v", a)
	}
	last := len(cuts) - 2
	prev := tr.SnapshotAtEdge(cuts[last].EdgeCount)
	l2 := Lambda2(prev, tr.NewEdgesBetween(cuts[last], cuts[last+1]))
	if l2 < 0 || l2 > 1 {
		t.Errorf("lambda2 = %v", l2)
	}
}

func TestFacadeDirected(t *testing.T) {
	tr, _ := smallTrace(t)
	d := DirectedFromTrace(tr, tr.NumEdges()*3/4)
	if d.NumArcs() == 0 {
		t.Fatal("no arcs")
	}
	for _, s := range DirectedScorers() {
		arcs := PredictArcs(d, s, 5, 1)
		if len(arcs) == 0 {
			t.Errorf("%s: no directed predictions", s.Name())
		}
	}
}

func TestFacadeMissingLinks(t *testing.T) {
	tr, cfg := smallTrace(t)
	g := tr.SnapshotAtEdge(tr.NumEdges())
	_ = cfg
	res, err := DetectMissingLinks(g, "AA", 0.1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Hidden == 0 || res.Ratio <= 1 {
		t.Errorf("missing-link result = %+v", res)
	}
	if _, err := DetectMissingLinks(g, "NOPE", 0.1, DefaultOptions()); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
