package predict

import (
	"math"

	"linkpred/internal/graph"
)

// This file implements the additional neighborhood similarity metrics from
// Lü & Zhou's survey [28], which the paper cites as the canonical metric
// catalogue. They are not part of the paper's 14 evaluated algorithms but
// round the library out for downstream studies; Extensions() keeps them
// separate from the paper-faithful registries.

func scoreSalton(g *graph.Graph, _ *naiveBayes, u, v graph.NodeID, common []graph.NodeID) float64 {
	du, dv := g.Degree(u), g.Degree(v)
	if du == 0 || dv == 0 {
		return 0
	}
	return float64(len(common)) / math.Sqrt(float64(du)*float64(dv))
}

func scoreSorensen(g *graph.Graph, _ *naiveBayes, u, v graph.NodeID, common []graph.NodeID) float64 {
	du, dv := g.Degree(u), g.Degree(v)
	if du+dv == 0 {
		return 0
	}
	return 2 * float64(len(common)) / float64(du+dv)
}

func scoreHPI(g *graph.Graph, _ *naiveBayes, u, v graph.NodeID, common []graph.NodeID) float64 {
	du, dv := g.Degree(u), g.Degree(v)
	m := min(du, dv)
	if m == 0 {
		return 0
	}
	return float64(len(common)) / float64(m)
}

func scoreHDI(g *graph.Graph, _ *naiveBayes, u, v graph.NodeID, common []graph.NodeID) float64 {
	du, dv := g.Degree(u), g.Degree(v)
	m := max(du, dv)
	if m == 0 {
		return 0
	}
	return float64(len(common)) / float64(m)
}

func scoreLHN(g *graph.Graph, _ *naiveBayes, u, v graph.NodeID, common []graph.NodeID) float64 {
	du, dv := g.Degree(u), g.Degree(v)
	if du == 0 || dv == 0 {
		return 0
	}
	return float64(len(common)) / (float64(du) * float64(dv))
}

// The fused accumulate-then-finish forms: all five survey metrics depend
// only on the common-neighbor count and endpoint degrees, so they ride the
// count-only sweep kernel (witness nil).

func fuseSalton(g *graph.Graph, _ *naiveBayes, u, v graph.NodeID, count int32, _ float64) float64 {
	du, dv := g.Degree(u), g.Degree(v)
	if du == 0 || dv == 0 {
		return 0
	}
	return float64(count) / math.Sqrt(float64(du)*float64(dv))
}

func fuseSorensen(g *graph.Graph, _ *naiveBayes, u, v graph.NodeID, count int32, _ float64) float64 {
	du, dv := g.Degree(u), g.Degree(v)
	if du+dv == 0 {
		return 0
	}
	return 2 * float64(count) / float64(du+dv)
}

func fuseHPI(g *graph.Graph, _ *naiveBayes, u, v graph.NodeID, count int32, _ float64) float64 {
	m := min(g.Degree(u), g.Degree(v))
	if m == 0 {
		return 0
	}
	return float64(count) / float64(m)
}

func fuseHDI(g *graph.Graph, _ *naiveBayes, u, v graph.NodeID, count int32, _ float64) float64 {
	m := max(g.Degree(u), g.Degree(v))
	if m == 0 {
		return 0
	}
	return float64(count) / float64(m)
}

func fuseLHN(g *graph.Graph, _ *naiveBayes, u, v graph.NodeID, count int32, _ float64) float64 {
	du, dv := g.Degree(u), g.Degree(v)
	if du == 0 || dv == 0 {
		return 0
	}
	return float64(count) / (float64(du) * float64(dv))
}

// The four degree-normalized indices are bounded by 1 and a degree-twin
// candidate attains it, so they carry the unit bound (which never prunes —
// DESIGN.md §10); LHN's denominator grows with deg(u), giving it the
// strongest per-source bound in the family.

var (
	salton   = &localMetric{name: "Salton", score: scoreSalton, fuse: fuseSalton, boundKind: boundUnit}
	sorensen = &localMetric{name: "Sorensen", score: scoreSorensen, fuse: fuseSorensen, boundKind: boundUnit}
	hpi      = &localMetric{name: "HPI", score: scoreHPI, fuse: fuseHPI, boundKind: boundUnit}
	hdi      = &localMetric{name: "HDI", score: scoreHDI, fuse: fuseHDI, boundKind: boundUnit}
	lhn      = &localMetric{name: "LHN", score: scoreLHN, fuse: fuseLHN, boundKind: boundInvDeg}
)

// Salton is the cosine similarity index (|Γu∩Γv| / sqrt(ku·kv)).
var Salton Algorithm = salton.row()

// Sorensen is the Sørensen index (2|Γu∩Γv| / (ku+kv)).
var Sorensen Algorithm = sorensen.row()

// HPI is the Hub Promoted Index (|Γu∩Γv| / min(ku,kv)).
var HPI Algorithm = hpi.row()

// HDI is the Hub Depressed Index (|Γu∩Γv| / max(ku,kv)).
var HDI Algorithm = hdi.row()

// LHN is the Leicht-Holme-Newman index (|Γu∩Γv| / (ku·kv)).
var LHN Algorithm = lhn.row()
