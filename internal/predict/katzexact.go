package predict

import (
	"linkpred/internal/graph"
)

// KatzExact is the truncated-exact Katz comparator: the series Σ βˡ (Aˡ)_{uv}
// computed exactly up to l = KatzMaxLen by per-source sparse propagation.
// With the paper's β = 0.001 the truncated tail is negligible, so this is
// effectively exact Katz — the reference the approximations are benchmarked
// against in BenchmarkAblationKatzVariants. It is not one of the paper's
// implementations (they could not afford exact Katz at their scale; §3.2's
// footnote reports 27 days for a single Renren snapshot), which is exactly
// why having it at our scale is useful for validating Katz_lr and Katz_sc.
var KatzExact Algorithm = propagation(func(g *graph.Graph, opt Options) sourceFill {
	beta, maxLen := opt.KatzBeta, katzLen(opt)
	return func(u graph.NodeID, s *walkScratch) *sparseVec { return katzVector(g, u, beta, maxLen, s) }
}).row("KatzExact")

// katzVector accumulates Σ_{l=1..maxLen} βˡ Aˡ e_u into s.acc and returns
// it.
func katzVector(g *graph.Graph, u graph.NodeID, beta float64, maxLen int, s *walkScratch) *sparseVec {
	cur, next, acc := s.cur, s.next, s.acc
	cur.reset()
	acc.reset()
	cur.add(u, 1)
	weight := beta
	for step := 0; step < maxLen; step++ {
		next.reset()
		propagate(g, cur, next)
		for _, v := range next.touched {
			acc.add(v, weight*next.val[v])
		}
		cur, next = next, cur
		weight *= beta
	}
	s.cur, s.next = cur, next
	return acc
}

func katzLen(opt Options) int {
	if opt.KatzMaxLen <= 0 {
		return 4
	}
	return opt.KatzMaxLen
}
