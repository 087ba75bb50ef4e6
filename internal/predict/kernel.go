package predict

import "linkpred/internal/graph"

// This file implements the fused neighborhood-sweep kernels behind the
// local metric family (CN, JC, AA, RA and the naive Bayes variants). The
// per-pair reference path — intersect two sorted adjacency lists, then fold
// the common-neighbor slice — allocates a fresh intersection per candidate
// and re-walks both adjacency lists even though the enclosing 2-hop sweep
// already visits every (source, witness, candidate) wedge. The fused path
// instead accumulates, per candidate v of a source u, the common-neighbor
// count and the witness-weight sum *during* the wedge enumeration
// w ∈ N(u), v ∈ N(w): a witness w contributes exactly once per candidate it
// certifies, and adjacency lists are sorted, so witnesses arrive in
// ascending order and the accumulated float sums are bit-identical to the
// reference fold over the sorted intersection.
//
// All per-source state lives in a sweepScratch allocated once per worker
// and reused across sources, so steady-state sweeps perform zero
// allocations (TestFusedPredictAllocs pins this).

// sweepKernel is one local metric expressed in accumulate-then-finish form.
type sweepKernel struct {
	// witness returns the weight a common neighbor w contributes to every
	// candidate it certifies (1/log deg(w) for AA, 1/deg(w) for RA, naive
	// Bayes log-ratios for the B* family). nil means the metric needs only
	// the common-neighbor count and the weight accumulation is skipped.
	witness func(w graph.NodeID) float64
	// finish folds one candidate's accumulated state into the metric value.
	// count is |Γ(u) ∩ Γ(v)| > 0 and wsum the witness-weight sum; both
	// match the reference fold bit for bit.
	finish func(u, v graph.NodeID, count int32, wsum float64) float64
}

// sweepScratch is one worker's reusable accumulation state. mark carries
// the per-source exclusion stamp (same discipline as twoHopRange); count
// and weight are dense per-candidate accumulators, valid only for the
// indices listed in cands and cleared by walking cands, so resetting costs
// O(touched), never O(n).
type sweepScratch struct {
	mark   []int32
	count  []int32
	weight []float64
	cands  []graph.NodeID
}

func newSweepScratch(n int) *sweepScratch {
	return &sweepScratch{
		mark:   newStamp(n),
		count:  make([]int32, n),
		weight: make([]float64, n),
		cands:  make([]graph.NodeID, 0, n),
	}
}

// begin clears the previous source's accumulators.
func (s *sweepScratch) begin() {
	for _, v := range s.cands {
		s.count[v] = 0
		s.weight[v] = 0
	}
	s.cands = s.cands[:0]
}

// sweepCandidates accumulates over the Predict candidate set of source u:
// unconnected pairs (u, v) with v > u at distance exactly two. After the
// call, cands lists the candidates in first-visit order — exactly the order
// twoHopRange emits them — and count/weight hold their accumulated state.
func (s *sweepScratch) sweepCandidates(g *graph.Graph, u graph.NodeID, witness func(graph.NodeID) float64) {
	s.begin()
	st := int32(u)
	nu := g.Neighbors(u)
	for _, w := range nu {
		s.mark[w] = st
	}
	s.mark[u] = st
	count, weight := s.count, s.weight
	if witness == nil {
		for _, w := range nu {
			for _, v := range g.Neighbors(w) {
				if v <= u || s.mark[v] == st {
					continue
				}
				if count[v] == 0 {
					s.cands = append(s.cands, v)
				}
				count[v]++
			}
		}
		return
	}
	for _, w := range nu {
		wf := witness(w)
		for _, v := range g.Neighbors(w) {
			if v <= u || s.mark[v] == st {
				continue
			}
			if count[v] == 0 {
				s.cands = append(s.cands, v)
			}
			count[v]++
			weight[v] += wf
		}
	}
}

// sweepAll accumulates over every 2-hop-reachable node from u with no
// exclusions — batch scoring must handle connected and non-canonical
// (V < U) queries exactly like the reference, which intersects adjacency
// lists unconditionally. Nodes the sweep never touches keep count 0,
// matching the reference's empty-intersection guard.
func (s *sweepScratch) sweepAll(g *graph.Graph, u graph.NodeID, witness func(graph.NodeID) float64) {
	s.begin()
	count, weight := s.count, s.weight
	if witness == nil {
		for _, w := range g.Neighbors(u) {
			for _, v := range g.Neighbors(w) {
				if count[v] == 0 {
					s.cands = append(s.cands, v)
				}
				count[v]++
			}
		}
		return
	}
	for _, w := range g.Neighbors(u) {
		wf := witness(w)
		for _, v := range g.Neighbors(w) {
			if count[v] == 0 {
				s.cands = append(s.cands, v)
			}
			count[v]++
			weight[v] += wf
		}
	}
}
