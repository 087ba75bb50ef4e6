package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/predict"
)

// Predict answers a top-k query: the k highest-scored candidate links on
// the current snapshot under the named algorithm.
func (s *Server) Predict(ctx context.Context, alg string, k int) (*Result, error) {
	return s.PredictShard(ctx, alg, k, 0, 1)
}

// PredictShard answers the shard-restricted top-k query behind the cluster
// scatter/gather path: the top k among the candidate pairs owned by shard
// index shard of shards, computed against the server's current snapshot.
// shards <= 1 is the unrestricted Predict. The response carries the swept
// source range and the snapshot's node count so a router can merge
// same-epoch partial lists (predict.MergeTopK) and account for missing
// ranges when a shard is down.
func (s *Server) PredictShard(ctx context.Context, alg string, k, shard, shards int) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("serve: k must be positive, got %d", k)
	}
	if shards > 1 && (shard < 0 || shard >= shards) {
		return nil, fmt.Errorf("serve: shard %d out of range for %d shards", shard, shards)
	}
	return s.submit(&request{kind: kindPredict, alg: alg, k: k, shard: shard, shards: shards, ctx: ctx})
}

// Score answers a pair-score query: one score per requested pair, in
// request order, in external IDs. Unknown endpoints and pairs beyond the
// current snapshot score zero.
func (s *Server) Score(ctx context.Context, alg string, pairs [][2]int64) (*Result, error) {
	req := &request{kind: kindScore, alg: alg, ext: pairs, ctx: ctx}
	req.dense = make([]densePair, len(pairs))
	for i, p := range pairs {
		u, uok := s.led.Lookup(p[0])
		v, vok := s.led.Lookup(p[1])
		req.dense[i] = densePair{u: u, v: v, ok: uok && vok}
	}
	return s.submit(req)
}

// answer hands r its Result: the header for the routed sweep on snap around
// pairs, plus the swept range and the snapshot's node count when the sweep
// was shard-restricted. It is the one place a Result is built and a
// degraded response counted.
func (rt routing) answer(r *request, snap *Snapshot, pairs []PairScore, srange *predict.SourceRange) {
	res := &Result{
		Alg:           r.alg,
		ServedBy:      rt.served,
		Degraded:      rt.degraded,
		SnapshotSeq:   snap.Seq,
		SnapshotEdges: snap.Edges,
		SnapshotTime:  snap.Time,
		Pairs:         pairs,
	}
	if srange != nil {
		res.SnapshotNodes = snap.Graph.NumNodes()
		res.ShardRange = &[2]int{srange.Lo, srange.Hi}
	}
	if rt.degraded {
		degradedResponses.Inc()
	}
	r.done <- outcome{res: res}
}

// servePredict runs one top-k request in three steps: plan (route, plus
// the source range when the request is sharded), sweep, and render. A memo
// hit skips the sweep and, with it, the plan's source range.
func (s *Server) servePredict(r *request, snap *Snapshot) {
	start := time.Now()
	if r.ctx.Err() != nil {
		s.finishDeadline(r)
		return
	}
	rt := s.deg.route(r.alg, r.resolved, s.cfg.Resolve)
	pairs, srange, swept := s.topK(r, snap, rt)
	if r.ctx.Err() != nil {
		// The sweep was cut short; the partial top-k is not the contract's
		// bit-identical answer, so it is discarded.
		s.finishDeadline(r)
		return
	}
	s.render(r, snap, rt, srange, pairs, start, swept)
}

// plan returns the source range r sweeps on snap, or nil when r is
// unrestricted.
func plan(r *request, snap *Snapshot, rt routing) *predict.SourceRange {
	if r.shards <= 1 {
		return nil
	}
	// Cost-weighted boundaries, not equal-count: growth traces put the
	// hubs at low IDs, and equal-count ranges leave shard 0 with most of
	// the sweep. The cost model follows the *served* algorithm's kernel
	// family (wedge, capped-wedge for the pruned bounded sweeps,
	// row-count for the latents), so a degraded shard balances the proxy
	// sweep it actually runs. The split is a pure function of (snapshot,
	// shards, served alg) — every replica serving the same epoch and
	// algorithm derives the same disjoint cover, the router merges only
	// parts that served one algorithm, and it learns the ranges from
	// shard_range.
	sr := predict.WeightedSourceRangeFor(snap.Graph, r.shard, r.shards, predict.CostModelFor(rt.served))
	return &sr
}

// topK answers r's top-k on snap under rt: sweep, through the epoch memo.
// It returns the ranked pairs, the swept source range (nil when
// unrestricted) and whether a sweep ran for this request — false for a
// memo hit. A degraded route bypasses the memo: its proxy sweeps are what
// the degrader observes to recover. Concurrent misses on one key each
// sweep; the memo keeps the deepest list that completed.
func (s *Server) topK(r *request, snap *Snapshot, rt routing) ([]predict.Pair, *predict.SourceRange, bool) {
	key := memoKey{alg: rt.served, shard: r.shard, shards: r.shards}
	if r.shards <= 1 {
		key.shard, key.shards = 0, 1
	}
	depth := r.k
	if !rt.degraded {
		var l memoList
		var hit bool
		if l, hit, depth = s.memo.lookup(snap.Seq, key, r.k); hit {
			memoHits.Inc()
			return l.pairs[:min(r.k, len(l.pairs))], l.srange, false
		}
	}
	srange := plan(r, snap, rt)
	pairs := s.sweep(r.ctx, snap, rt.alg, depth, srange)
	if !rt.degraded && r.ctx.Err() == nil {
		s.memo.store(snap.Seq, key, memoList{k: depth, pairs: pairs, srange: srange})
	}
	return pairs[:min(r.k, len(pairs))], srange, true
}

// memo is the epoch memo around sweep. It holds at most one list per
// (served algorithm, shard, shards) for the newest snapshot seen, and drops
// them all when a newer one arrives. A list is the top-K of the deepest
// sweep completed on that snapshot; since the ranking is a total order
// (score, then TieHash), its first k pairs are the top-k for any k <= K,
// and for every k once the list came back shorter than K. Only sweeps that
// ran to completion on an undegraded route are stored, and only while all
// lists together fit in memoMaxSlots.
type memo struct {
	mu    sync.Mutex
	seq   int64
	lists map[memoKey]memoList
	used  int // slots held by lists
	// carried is the length of each key's list on the previous snapshot:
	// a miss sweeps at least that deep, so a workload whose k varies costs
	// about one sweep per key per epoch. A list the budget refused is not
	// carried, so no request sweeps deeper than the memo would keep.
	carried map[memoKey]int
}

// memoMaxSlots bounds what all lists hold together, in pair slots of 16 B:
// 128 KiB. k, shard and shards come from the request; past the budget a
// sweep is answered but not stored, so hostile depths or keys cannot pin
// memory, and no carried depth exceeds it.
const memoMaxSlots = 1 << 13

type memoKey struct {
	alg           string
	shard, shards int
}

// memoList is one stored sweep: its depth k, the ranked pairs and the
// source range it swept.
type memoList struct {
	k      int
	pairs  []predict.Pair
	srange *predict.SourceRange
}

// slots is what l holds against memoMaxSlots: its pairs' capacity, plus
// eight slots for its key, header and range, so that many empty lists
// cannot outgrow the budget either.
func (l memoList) slots() int { return cap(l.pairs) + 8 }

// advance moves the memo to snapshot seq when seq is newer, carrying each
// stored list's length. The caller holds m.mu.
func (m *memo) advance(seq int64) {
	if m.lists != nil && seq <= m.seq {
		return
	}
	carried := make(map[memoKey]int, len(m.lists))
	for key, l := range m.lists {
		carried[key] = len(l.pairs)
	}
	m.seq, m.lists, m.used, m.carried = seq, make(map[memoKey]memoList), 0, carried
}

// lookup returns key's stored list when it answers depth k on snapshot
// seq, and otherwise the depth a miss sweeps at: k, or the carried depth
// when that is larger. A request on a snapshot older than the memo's is a
// miss at its own k.
func (m *memo) lookup(seq int64, key memoKey, k int) (l memoList, hit bool, depth int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advance(seq)
	if seq < m.seq {
		return memoList{}, false, k
	}
	if l, ok := m.lists[key]; ok && (k <= l.k || len(l.pairs) < l.k) {
		return l, true, k
	}
	return memoList{}, false, max(k, m.carried[key])
}

// store keeps l as key's list on snapshot seq when it goes deeper than the
// stored one and the budget has room for it.
func (m *memo) store(seq int64, key memoKey, l memoList) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advance(seq)
	old, had := m.lists[key]
	if seq < m.seq || had && old.k >= l.k {
		return
	}
	used := m.used + l.slots()
	if had {
		used -= old.slots()
	}
	if used > memoMaxSlots {
		return
	}
	m.lists[key], m.used = l, used
}

// sweep is the server's only top-k sweep. Its answer is a pure function of
// (snapshot, served algorithm, k, source range); ctx only cuts it short.
func (s *Server) sweep(ctx context.Context, snap *Snapshot, alg predict.Algorithm, k int, srange *predict.SourceRange) []predict.Pair {
	opt := s.cfg.Opt
	opt.Ctx, opt.SourceRange = ctx, srange
	return alg.Predict(snap.Graph, k, opt)
}

// render turns a finished top-k into r's response: external IDs (plus the
// dense ones a router merges on, when sharded), the liveeval record of an
// unrestricted ranking, and, when a sweep ran, its observation for the
// degrader.
func (s *Server) render(r *request, snap *Snapshot, rt routing, srange *predict.SourceRange, pairs []predict.Pair, start time.Time, swept bool) {
	out := make([]PairScore, len(pairs))
	ext := s.led.Externals()
	for i, p := range pairs {
		out[i] = PairScore{U: ext[p.U], V: ext[p.V], Score: p.Score}
		if srange != nil {
			out[i].DU, out[i].DV = p.U, p.V
		}
	}
	if srange != nil {
		shardPredicts.Inc()
	}
	if srange == nil && s.cfg.Eval != nil {
		// Prequential record: the ranked top-k in dense IDs, keyed by the
		// snapshot epoch it was computed on, credited to the algorithm
		// that actually ran. The current trace length fences off edges
		// that arrived before this response existed. Shard-restricted
		// responses are never recorded — a partial list is not a ranked
		// prediction; the router owns the merged list and its accuracy.
		ranked := make([][2]graph.NodeID, len(pairs))
		for i, p := range pairs {
			ranked[i] = [2]graph.NodeID{p.U, p.V}
		}
		s.cfg.Eval.Record(rt.served, snap.Seq, snap.Edges, s.led.Len(), ranked)
	}
	if swept {
		s.deg.observe(time.Since(start), len(s.queue))
	}
	rt.answer(r, snap, out, srange)
}

// serveScoreGroup answers a coalesced batch of same-algorithm score
// requests with one ScorePairs sweep. The first live member is the batch
// leader; its context bounds the shared sweep.
func (s *Server) serveScoreGroup(grp []*request, snap *Snapshot) {
	start := time.Now()
	live := grp[:0:0]
	for _, r := range grp {
		if r.ctx.Err() != nil {
			s.finishDeadline(r)
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	leader := live[0]
	rt := s.deg.route(leader.alg, leader.resolved, s.cfg.Resolve)
	batchSize.Observe(int64(len(live)))
	// Concatenate the in-range pairs of every member. A pair is scorable
	// when both endpoints exist in the queried snapshot; anything else
	// (unknown external ID, node newer than the snapshot) scores zero
	// rather than indexing out of range in the engine.
	n := graph.NodeID(snap.Graph.NumNodes())
	var flat []predict.Pair
	at := make([][]int, len(live)) // flat index per member pair, -1 = unscorable
	for m, r := range live {
		at[m] = make([]int, len(r.dense))
		for i, dp := range r.dense {
			if !dp.ok || dp.u >= n || dp.v >= n {
				at[m][i] = -1
				continue
			}
			at[m][i] = len(flat)
			flat = append(flat, predict.Pair{U: dp.u, V: dp.v})
		}
	}
	opt := s.cfg.Opt
	opt.Ctx = leader.ctx
	var vals []float64
	if len(flat) > 0 {
		vals = rt.alg.ScorePairs(snap.Graph, flat, opt)
	}
	if leader.ctx.Err() != nil {
		// The shared sweep was cancelled; followers retry, the leader owns
		// the deadline.
		s.finishDeadline(leader)
		for _, r := range live[1:] {
			r.done <- outcome{err: ErrBatchAborted}
		}
		return
	}
	s.deg.observe(time.Since(start), len(s.queue))
	for m, r := range live {
		if r.ctx.Err() != nil {
			s.finishDeadline(r)
			continue
		}
		pairs := make([]PairScore, len(r.ext))
		for i, p := range r.ext {
			pairs[i] = PairScore{U: p[0], V: p[1]}
			if j := at[m][i]; j >= 0 {
				pairs[i].Score = vals[j]
			}
		}
		rt.answer(r, snap, pairs, nil)
	}
}
