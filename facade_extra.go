package linkpred

import (
	"io"

	"linkpred/internal/analysis"
	"linkpred/internal/digraph"
	"linkpred/internal/eval"
	"linkpred/internal/graph"
	"linkpred/internal/predict"
)

// This file extends the facade with the interoperability and analysis
// surface beyond the paper-faithful core: CSV trace exchange, whole-list
// ranking measures (AUC, precision/recall curves), snapshot features,
// directed prediction and missing-link detection.

// ReadTraceCSV loads a dynamic-network trace from "u,v,timestamp" text
// (comma, tab, semicolon or space separated; '#'/'%' comments). Node IDs
// are remapped densely in arrival order. This is the path for running the
// toolkit on real edge-list datasets.
func ReadTraceCSV(r io.Reader, name string) (*Trace, error) {
	return graph.ReadCSV(r, name)
}

// ReadTraceBinary loads a trace written by Trace.WriteTo / cmd/tracegen.
func ReadTraceBinary(r io.Reader) (*Trace, error) {
	return graph.ReadTrace(r)
}

// AUC is the Mann-Whitney area under the ROC curve for scored items with
// binary relevance — the whole-list measure the paper discusses (and
// deliberately avoids) in §4.1.
func AUC(scores []float64, labels []bool) float64 { return eval.AUC(scores, labels) }

// RankLabels orders pair labels best-first under the library's
// deterministic tie-breaking, feeding the precision/recall measures.
func RankLabels(pairs []Pair, scores []float64, truth map[uint64]bool, seed int64) []bool {
	return eval.RankLabels(pairs, scores, truth, seed)
}

// PrecisionAtK returns the top-k precision curve of a ranked label list.
func PrecisionAtK(ranked []bool, ks []int) []float64 { return eval.PrecisionAtK(ranked, ks) }

// RecallAtK returns the top-k recall curve.
func RecallAtK(ranked []bool, ks []int) []float64 { return eval.RecallAtK(ranked, ks) }

// AveragePrecision is the mean precision at the positive ranks.
func AveragePrecision(ranked []bool) float64 { return eval.AveragePrecision(ranked) }

// NetworkFeatures measures the snapshot features of §4.3 (node/edge
// counts, degree statistics, clustering, path length, assortativity), in
// NetworkFeatureNames order.
func NetworkFeatures(g *Graph, sample int, seed int64) []float64 {
	return analysis.Features(g, sample, seed)
}

// NetworkFeatureNames labels the NetworkFeatures vector.
func NetworkFeatureNames() []string {
	names := make([]string, len(analysis.FeatureNames))
	copy(names, analysis.FeatureNames)
	return names
}

// Assortativity returns the degree assortativity coefficient of g.
func Assortativity(g *Graph) float64 { return analysis.Assortativity(g) }

// ConnectedComponents labels every node with its component ID.
func ConnectedComponents(g *Graph) (labels []int32, count int) {
	return graph.ConnectedComponents(g)
}

// LargestComponent returns the node set of the largest connected component.
func LargestComponent(g *Graph) []NodeID { return graph.LargestComponent(g) }

// Directed link prediction (the paper's first future-work item, §7).
type (
	// DiGraph is a directed snapshot; trace edges carry direction as
	// initiator → target.
	DiGraph = digraph.DiGraph
	// Arc is a scored directed candidate.
	Arc = digraph.Arc
	// DirectedScorer is a directed link prediction metric.
	DirectedScorer = digraph.Scorer
)

// DirectedFromTrace builds the directed snapshot of the first m trace arcs.
func DirectedFromTrace(tr *Trace, m int) *DiGraph { return digraph.FromTrace(tr, m) }

// DirectedScorers returns the directed metric catalogue (DCN, DAA,
// Reciprocity, DPA).
func DirectedScorers() []DirectedScorer { return digraph.Scorers() }

// PredictArcs returns the top-k directed candidates of a directed scorer.
func PredictArcs(d *DiGraph, s DirectedScorer, k int, seed int64) []Arc {
	return digraph.PredictArcs(d, s, k, seed)
}

// MissingLinkResult reports a hide-and-recover experiment.
type MissingLinkResult = eval.MissingLinkResult

// DetectMissingLinks hides a random fraction of g's edges and measures how
// well the named algorithm recovers them — the missing-link task §2
// distinguishes from future-link prediction.
func DetectMissingLinks(g *Graph, algorithm string, hideFrac float64, opt Options) (MissingLinkResult, error) {
	alg, err := predict.ByName(algorithm)
	if err != nil {
		return MissingLinkResult{}, err
	}
	return eval.DetectMissing(g, alg, hideFrac, opt)
}

// Lambda2 is the paper's 2-hop edge ratio: the fraction of new edges whose
// endpoints were exactly two hops apart in prev.
func Lambda2(prev *Graph, newEdges []Edge) float64 { return analysis.Lambda2(prev, newEdges) }
