// Package cluster implements horizontal scale-out for prediction serving:
// a thin router in front of N linkpredd workers, each answering for one
// contiguous source-node shard of the candidate universe (DESIGN.md §12).
//
// The scatter/gather contract: every shard holds the FULL graph (ingest is
// replicated to all shards in identical order), but /predict?shard=i&shards=N
// restricts the sweep to pairs owned by shard i — those whose min endpoint
// falls in ShardSourceRange(n, i, N). The shard ranges partition the dense
// node space, so the union of the shards' ownership universes is exactly the
// unrestricted candidate universe, and merging the N partial top-k lists
// with predict.MergeTopK — which reuses the engine's seeded tie-break hash —
// reproduces the single-process top-k bit for bit, at any shard count and
// any per-shard worker count.
//
// Epoch consistency: the merge is only meaningful when every partial list
// was computed against the same snapshot. The router tags each response
// with its snapshot sequence number, takes the maximum across the gather,
// and re-asks stale shards (bounded retries with backoff) until all ranges
// agree — a shard that just published seq s+1 pulls the others forward
// rather than being discarded. Shards that stay down or stay behind yield a
// partial response: partial:true plus the missing source ranges, so the
// caller knows exactly which slice of the universe is unaccounted for.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/liveeval"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
	"linkpred/internal/serve"
)

// Config parameterizes a Router. Shards is required; everything else has a
// serviceable default.
type Config struct {
	// Shards lists the worker base URLs (e.g. http://127.0.0.1:8081), one
	// per source shard, in shard-index order. The order is the sharding:
	// Shards[i] answers for ShardSourceRange(n, i, len(Shards)).
	Shards []string
	// Seed must equal every shard's engine seed (predict.Options.Seed):
	// the gather merge breaks score ties with the same seeded hash the
	// shards used, which is what makes the merged ranking bit-identical
	// to a single-process sweep.
	Seed int64
	// Client issues the fan-out requests (default: http.Client with the
	// router's Timeout).
	Client *http.Client
	// Timeout bounds each scatter/gather when the request carries no
	// explicit budget (default 10s). Explicit timeout_ms wins.
	Timeout time.Duration
	// HedgeAfter launches one backup request against a straggling shard
	// after this delay (default 150ms; 0 keeps the default, negative
	// disables hedging). First response wins; the loser is cancelled.
	HedgeAfter time.Duration
	// EpochRetries bounds how many times a stale shard is re-asked to
	// catch up to the gather's maximum snapshot epoch (default 4).
	EpochRetries int
	// EpochBackoff is the wait between epoch re-asks (default 25ms): the
	// stale shard's publish is usually mid-flight, not missing.
	EpochBackoff time.Duration
	// Partitioned declares the shards memory-partitioned (linkpredd
	// -partition, DESIGN.md §13): each worker materializes only its owned
	// adjacency rows plus frontier, with the partition bounds configured on
	// the workers in ascending shard order. /predict then scatters with NO
	// shard parameters — each worker sweeps exactly its ownership range and
	// reports it via shard_range — and /score broadcasts to every shard,
	// keeping the Owned answer per pair. Only the partition-safe local
	// algorithm family is servable in this mode (workers reject the rest
	// with 400).
	Partitioned bool
	// Eval, when set, runs prequential evaluation at the router: every
	// merged (non-partial) /predict response is recorded and every
	// replicated ingest edge is scored against the merged predictions that
	// existed before it arrived. This measures what the cluster actually
	// serves — shard-local evaluation cannot see the merged ranking, and in
	// partitioned mode no single shard even holds it. The live series
	// appear in the router's /metrics.
	Eval *liveeval.Engine
}

// Response is a merged cluster answer. For a full gather it serializes
// byte-identically to a single node's serve.Result (the omitempty cluster
// fields stay absent); a degraded gather adds partial:true and the source
// ranges no aligned shard answered for.
type Response struct {
	serve.Result
	Partial       bool     `json:"partial,omitempty"`
	MissingRanges [][2]int `json:"missing_ranges,omitempty"`
}

// IngestResult reports one replicated ingest fan-out.
type IngestResult struct {
	Accepted    int   `json:"accepted"`
	Rejected    int   `json:"rejected"`
	SnapshotSeq int64 `json:"snapshot_seq"`
	TraceEdges  int   `json:"trace_edges"`
	// ShardErrors counts shards that failed to apply the batch. Non-zero
	// means the cluster has diverged (see Router doc) — surfaced, not
	// hidden, so the operator can restart the lagging shard.
	ShardErrors int `json:"shard_errors,omitempty"`
}

// ShardHealth is one worker's view in the aggregate health payload.
type ShardHealth struct {
	Shard int    `json:"shard"`
	URL   string `json:"url"`
	Up    bool   `json:"up"`
	Err   string `json:"err,omitempty"`
	// CatchingUp marks an up shard whose ingest position (TraceEdges)
	// trails the most advanced up shard — typically one that crashed,
	// recovered its trace from the write-ahead log, and is replaying the
	// ingest delta it missed. Its snapshots are internally consistent but
	// epoch-stale, so the router serves its ranges partial until the edge
	// counts realign.
	CatchingUp bool `json:"catching_up,omitempty"`
	serve.Health
}

// ClusterHealth is the router's /healthz payload. SnapshotBytes sums the
// up shards' resident adjacency footprints — on a partitioned cluster
// (Partitioned true) that total plus frontier overhead replaces N full
// copies of the graph, which is the memory win §13 quantifies.
type ClusterHealth struct {
	OK        bool  `json:"ok"`
	Shards    int   `json:"shards"`
	ShardsUp  int   `json:"shards_up"`
	EpochSkew int64 `json:"epoch_skew"`
	// CatchingUp counts up shards still replaying missed ingest after a
	// crash-recovery restart (see ShardHealth.CatchingUp).
	CatchingUp    int           `json:"catching_up,omitempty"`
	SnapshotBytes int64         `json:"snapshot_bytes"`
	Partitioned   bool          `json:"partitioned,omitempty"`
	Workers       []ShardHealth `json:"workers"`
}

// ErrAllShardsDown reports a gather in which no shard produced a usable
// response.
var ErrAllShardsDown = errors.New("cluster: all shards down")

// ShardRejection is a shard's deterministic client-error refusal (unknown
// algorithm, partition-unsupported family). All shards share one
// configuration, so retrying or hedging cannot change the answer; the
// gather surfaces the refusal with its original status instead of
// misreporting a healthy cluster as an outage.
type ShardRejection struct {
	Status int
	Msg    string
}

func (e *ShardRejection) Error() string { return e.Msg }

// Router scatters predict requests across source shards and gathers the
// partial top-k lists into the bit-identical global ranking. It holds no
// graph state of its own: shards are the system of record, and the router's
// only invariants are (a) replicated ingest order and (b) same-epoch merge.
//
// Shard recovery (ROADMAP item 2): a shard that misses ingest batches
// (crash, partition) diverges, and the router detects this as persistent
// epoch misalignment, serving partial responses for that shard's ranges.
// With the durable trace landed (internal/wal), a crashed shard restarts
// from its own write-ahead log + checkpoint, resumes at its pre-crash
// ingest position, and reports catching_up in the aggregate health until
// its trace length realigns with the most advanced shard; the operator
// replays the missed delta (or the upstream source re-sends it) to close
// the gap. Router-driven automatic delta replay remains future work.
type Router struct {
	cfg    Config
	client *http.Client

	// ingestMu serializes ingest fan-outs so every shard applies batches
	// in the same order — the whole epoch-consistency protocol rests on
	// identical traces producing identical snapshot sequences.
	ingestMu sync.Mutex

	// rr round-robins /score forwards across shards.
	rr atomic.Uint64

	// lastSeq tracks each shard's most recently observed snapshot epoch,
	// feeding the epoch-skew gauge.
	lastSeq []atomic.Int64

	// evalMu guards the router-side prequential mirror (Config.Eval): a
	// replay of the replicated event stream through exactly the validation
	// and first-seen dense remapping the workers apply, so the router's
	// dense IDs and trace indices match every shard's. Ingest (already
	// serialized by ingestMu) extends it; Predict reads it to record merged
	// rankings in dense space.
	evalMu    sync.RWMutex
	evalTrace *graph.Trace
	evalRemap map[int64]graph.NodeID
}

// New builds a Router. It panics on an empty shard list — a router with
// nothing behind it is a configuration error, not a runtime state.
func New(cfg Config) *Router {
	if len(cfg.Shards) == 0 {
		panic("cluster: Config.Shards is empty")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 150 * time.Millisecond
	}
	if cfg.EpochRetries <= 0 {
		cfg.EpochRetries = 4
	}
	if cfg.EpochBackoff <= 0 {
		cfg.EpochBackoff = 25 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	r := &Router{cfg: cfg, client: client, lastSeq: make([]atomic.Int64, len(cfg.Shards))}
	if cfg.Eval != nil {
		r.evalTrace = &graph.Trace{Name: "cluster-eval"}
		r.evalRemap = make(map[int64]graph.NodeID)
	}
	if obs.Enabled() {
		obs.SetGaugeFunc("cluster/shards", func() float64 { return float64(len(cfg.Shards)) })
		obs.SetGaugeFunc("cluster/epoch_skew", func() float64 { return float64(r.epochSkew()) })
	}
	return r
}

// epochSkew is max-min of the last observed per-shard snapshot epochs.
func (r *Router) epochSkew() int64 {
	var lo, hi int64
	for i := range r.lastSeq {
		s := r.lastSeq[i].Load()
		if i == 0 || s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return hi - lo
}

// shardResp is one gathered partial response.
type shardResp struct {
	shard int
	res   *serve.Result
	err   error
}

// fetchShard asks shard i for its partial top-k, with one retry on failure
// and one hedged backup after cfg.HedgeAfter. At most two attempts are ever
// in flight; the first success wins and cancels the other.
func (r *Router) fetchShard(ctx context.Context, shard int, alg string, k int) (*serve.Result, error) {
	// Memory-partitioned workers define their own sweep range (the
	// configured ownership bounds); shard parameters would conflict with
	// it, so the partitioned scatter sends none.
	u := fmt.Sprintf("%s/predict?alg=%s&k=%d", r.cfg.Shards[shard], url.QueryEscape(alg), k)
	if !r.cfg.Partitioned {
		u = fmt.Sprintf("%s/predict?alg=%s&k=%d&shard=%d&shards=%d",
			r.cfg.Shards[shard], url.QueryEscape(alg), k, shard, len(r.cfg.Shards))
	}
	type attempt struct {
		res *serve.Result
		err error
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attempt, 2)
	launch := func() {
		go func() {
			res, err := r.getResult(ctx, u)
			results <- attempt{res, err}
		}()
	}
	launch()
	launched, done := 1, 0
	var hedge <-chan time.Time
	if r.cfg.HedgeAfter > 0 {
		t := time.NewTimer(r.cfg.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	var firstErr error
	for {
		select {
		case <-ctx.Done():
			if firstErr != nil {
				return nil, firstErr
			}
			return nil, ctx.Err()
		case <-hedge:
			hedge = nil
			if launched < 2 {
				launched++
				if obs.Enabled() {
					obs.GetCounter("cluster/shard_hedges").Inc()
				}
				launch()
			}
		case a := <-results:
			done++
			if a.err == nil {
				r.lastSeq[shard].Store(a.res.SnapshotSeq)
				return a.res, nil
			}
			var rej *ShardRejection
			if errors.As(a.err, &rej) {
				// Deterministic refusal: the retry and the hedge would get
				// the same 4xx, so fail the shard fetch immediately.
				return nil, a.err
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if obs.Enabled() {
				obs.GetCounter(fmt.Sprintf(`cluster/shard_errors{shard="%d"}`, shard)).Inc()
			}
			if launched < 2 && ctx.Err() == nil {
				// Retry immediately rather than waiting out the hedge
				// timer: the shard failed fast, so ask again fast.
				launched++
				if obs.Enabled() {
					obs.GetCounter("cluster/shard_retries").Inc()
				}
				launch()
			} else if done == launched {
				return nil, firstErr
			}
		}
	}
}

// getResult issues one GET and decodes a serve.Result, recording the
// per-shard latency histogram.
func (r *Router) getResult(ctx context.Context, u string) (*serve.Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			msg := string(bytes.TrimSpace(body))
			var env struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(body, &env) == nil && env.Error != "" {
				msg = env.Error
			}
			return nil, &ShardRejection{Status: resp.StatusCode, Msg: msg}
		}
		return nil, fmt.Errorf("cluster: shard status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var res serve.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("cluster: bad shard response: %w", err)
	}
	if obs.Enabled() {
		obs.GetHistogram("cluster/shard_latency_ns").Observe(time.Since(start).Nanoseconds())
	}
	return &res, nil
}

// Predict scatters alg/k across all shards, gathers same-epoch partial
// lists, and merges them into the global top-k. A fully aligned gather is
// bit-identical to a single-process sweep; a gather with dead or
// persistently stale shards returns partial:true with their source ranges.
// It fails with ErrAllShardsDown only when no shard answered at all.
func (r *Router) Predict(ctx context.Context, alg string, k int) (*Response, error) {
	if obs.Enabled() {
		obs.GetCounter("cluster/scatter_requests").Inc()
	}
	// The caller's deadline is the scatter budget (the HTTP layer derives
	// it from timeout_ms); fall back to the router default only when the
	// request carries none.
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.Timeout)
		defer cancel()
	}

	n := len(r.cfg.Shards)
	got := make([]*serve.Result, n)
	var rejected *ShardRejection
	gather := func(shards []int) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for _, i := range shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := r.fetchShard(ctx, i, alg, k)
				mu.Lock()
				if err == nil {
					got[i] = res
				} else {
					got[i] = nil
					var rej *ShardRejection
					if errors.As(err, &rej) && rejected == nil {
						rejected = rej
					}
				}
				mu.Unlock()
			}(i)
		}
		wg.Wait()
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	gather(all)

	// Epoch alignment: find the maximum snapshot epoch across the gather
	// and re-ask shards that answered from an older one. A re-ask may
	// itself raise the maximum (the straggler published again while we
	// waited), so loop — bounded by EpochRetries.
	maxSeq := func() int64 {
		var m int64 = -1
		for _, res := range got {
			if res != nil && res.SnapshotSeq > m {
				m = res.SnapshotSeq
			}
		}
		return m
	}
	target := maxSeq()
	if target < 0 {
		if rejected != nil {
			return nil, rejected
		}
		return nil, ErrAllShardsDown
	}
	for try := 0; try < r.cfg.EpochRetries; try++ {
		var stale []int
		for i, res := range got {
			if res != nil && res.SnapshotSeq < target {
				stale = append(stale, i)
			}
		}
		if len(stale) == 0 {
			break
		}
		if obs.Enabled() {
			obs.GetCounter("cluster/epoch_reasks").Add(int64(len(stale)))
			obs.GetCounter("cluster/stragglers").Add(int64(len(stale)))
		}
		if r.cfg.EpochBackoff > 0 {
			select {
			case <-time.After(r.cfg.EpochBackoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		gather(stale)
		if m := maxSeq(); m > target {
			target = m
		}
	}

	// A single-shard cluster needs no merge: the worker answered the
	// unrestricted sweep (shards=1 disables range restriction server-side)
	// and its result passes through whole.
	if n == 1 {
		if got[0] == nil {
			return nil, ErrAllShardsDown
		}
		if obs.Enabled() {
			obs.GetCounter("cluster/gather_full").Inc()
		}
		out := &Response{Result: *got[0]}
		r.recordEval(out)
		return out, nil
	}

	// Assemble: aligned shards contribute their partial lists; dead or
	// still-stale shards contribute their owned ranges to missing_ranges.
	// The boundaries are derived from the aligned responses: the split is
	// degree-weighted and computed shard-side from the snapshot
	// (predict.WeightedSourceRanges), so the router cannot reconstruct a
	// dead shard's range alone — but the ranges are contiguous and ordered
	// by shard index, so a run of unanswered shards owns exactly the gap
	// between its alive neighbors' boundaries (closed by 0 on the left and
	// the snapshot's node count on the right).
	var (
		aligned  []*serve.Result
		missing  [][2]int
		numNodes int
		ok       = make([]bool, n)
		lo       = make([]int, n)
		hi       = make([]int, n)
	)
	for i, res := range got {
		if res != nil && res.SnapshotSeq == target {
			aligned = append(aligned, res)
			if res.SnapshotNodes > numNodes {
				numNodes = res.SnapshotNodes
			}
			if res.ShardRange != nil {
				ok[i] = true
				lo[i], hi[i] = res.ShardRange[0], res.ShardRange[1]
			}
		}
	}
	if len(aligned) == 0 {
		return nil, ErrAllShardsDown
	}
	prevHi := 0
	for i := 0; i < n; {
		if ok[i] {
			prevHi = hi[i]
			i++
			continue
		}
		j := i
		for j < n && !ok[j] {
			j++
		}
		end := numNodes
		if j < n {
			end = lo[j]
		}
		// An empty gap means the unanswered shards owned no sources (more
		// shards than weight to split); nothing is missing from the merge.
		if end > prevHi {
			missing = append(missing, [2]int{prevHi, end})
		}
		prevHi = end
		i = j
	}

	out := &Response{Result: r.merge(aligned, k)}
	out.Alg = alg
	if len(missing) > 0 {
		out.Partial = true
		out.MissingRanges = missing
		if obs.Enabled() {
			obs.GetCounter("cluster/gather_partial").Inc()
		}
	} else if obs.Enabled() {
		obs.GetCounter("cluster/gather_full").Inc()
	}
	r.recordEval(out)
	return out, nil
}

// recordEval records one merged top-k into the router's prequential engine.
// Partial gathers are skipped: a ranking missing source ranges is not the
// cluster's answer, and crediting it would reward losing shards. The ranked
// pairs are remapped to the dense ID space shared with the workers via the
// router's ingest mirror; endpoints the mirror has never seen (possible only
// when a worker was warm-started outside the router's stream) are skipped.
func (r *Router) recordEval(out *Response) {
	if r.cfg.Eval == nil || out.Partial {
		return
	}
	r.evalMu.RLock()
	ranked := make([][2]graph.NodeID, 0, len(out.Pairs))
	for _, p := range out.Pairs {
		u, uok := r.evalRemap[p.U]
		v, vok := r.evalRemap[p.V]
		if !uok || !vok {
			continue
		}
		ranked = append(ranked, [2]graph.NodeID{u, v})
	}
	traceLen := len(r.evalTrace.Edges)
	r.evalMu.RUnlock()
	r.cfg.Eval.Record(out.ServedBy, out.SnapshotSeq, out.SnapshotEdges, traceLen, ranked)
}

// merge folds the aligned partial lists into the global top-k. The merge
// runs in the DENSE ID space the shards rank in — the tie-break hash is a
// function of the dense pair, so merging on external IDs would break bit-
// identity whenever ties cross a shard boundary — then maps the winners
// back to external IDs via the (dense → external) pairs the shard responses
// carry. The merged payload drops the dense fields: a full gather
// serializes exactly like a single-node serve.Result.
func (r *Router) merge(aligned []*serve.Result, k int) serve.Result {
	parts := make([][]predict.Pair, len(aligned))
	ext := make(map[graph.NodeID]int64)
	for i, res := range aligned {
		part := make([]predict.Pair, len(res.Pairs))
		for j, p := range res.Pairs {
			part[j] = predict.Pair{U: p.DU, V: p.DV, Score: p.Score}
			ext[p.DU] = p.U
			ext[p.DV] = p.V
		}
		parts[i] = part
	}
	merged := predict.MergeTopK(parts, k, r.cfg.Seed)
	base := aligned[0]
	out := serve.Result{
		Alg:           base.Alg,
		ServedBy:      base.ServedBy,
		Degraded:      base.Degraded,
		SnapshotSeq:   base.SnapshotSeq,
		SnapshotEdges: base.SnapshotEdges,
		SnapshotTime:  base.SnapshotTime,
		Pairs:         make([]serve.PairScore, len(merged)),
	}
	for _, res := range aligned[1:] {
		if res.Degraded {
			out.Degraded = true
			out.ServedBy = res.ServedBy
		}
	}
	for i, p := range merged {
		out.Pairs[i] = serve.PairScore{U: ext[p.U], V: ext[p.V], Score: p.Score}
	}
	return out
}

// Ingest replicates one event batch to every shard. Fan-outs are serialized
// so all shards apply batches in identical order — the precondition for
// identical snapshot cadence and therefore for epoch-aligned gathers. The
// returned counts come from the first healthy shard (all healthy shards
// agree by construction); ShardErrors reports divergence.
func (r *Router) Ingest(ctx context.Context, events []serve.Event) (*IngestResult, error) {
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	body, err := json.Marshal(struct {
		Events []serve.Event `json:"events"`
	}{events})
	if err != nil {
		return nil, err
	}
	type reply struct {
		shard int
		out   IngestResult
		err   error
	}
	replies := make(chan reply, len(r.cfg.Shards))
	for i, base := range r.cfg.Shards {
		go func(i int, base string) {
			var out IngestResult
			err := r.postJSON(ctx, base+"/ingest", body, &out)
			replies <- reply{i, out, err}
		}(i, base)
	}
	var ok *IngestResult
	errCount := 0
	for range r.cfg.Shards {
		rep := <-replies
		if rep.err != nil {
			errCount++
			if obs.Enabled() {
				obs.GetCounter("cluster/ingest_errors").Inc()
			}
			continue
		}
		r.lastSeq[rep.shard].Store(rep.out.SnapshotSeq)
		if ok == nil {
			out := rep.out
			ok = &out
		}
	}
	if ok == nil {
		return nil, ErrAllShardsDown
	}
	r.observeEval(events)
	if obs.Enabled() {
		obs.GetCounter("cluster/ingest_replicated").Inc()
	}
	ok.ShardErrors = errCount
	return ok, nil
}

// observeEval replays one replicated batch into the router's prequential
// mirror, applying the same per-event validation and first-seen dense
// remapping serve.(*Server).Ingest applies — including assigning dense IDs
// before the append that might still reject the event — so the mirror's
// dense IDs and trace indices are identical to every worker's. Each
// accepted edge is then scored against the merged predictions recorded
// before it arrived. Callers hold ingestMu.
func (r *Router) observeEval(events []serve.Event) {
	if r.cfg.Eval == nil {
		return
	}
	r.evalMu.Lock()
	type obsEdge struct {
		u, v graph.NodeID
		idx  int
	}
	accepted := make([]obsEdge, 0, len(events))
	for _, ev := range events {
		if ev.U < 0 || ev.V < 0 || ev.U == ev.V {
			continue
		}
		u, v := r.evalDenseLocked(ev.U), r.evalDenseLocked(ev.V)
		if _, err := r.evalTrace.Append(u, v, ev.T); err != nil {
			continue
		}
		accepted = append(accepted, obsEdge{u, v, len(r.evalTrace.Edges) - 1})
	}
	r.evalMu.Unlock()
	for _, e := range accepted {
		r.cfg.Eval.ObserveEdge(e.u, e.v, e.idx)
	}
}

// evalDenseLocked remaps an external ID, assigning the next dense ID on
// first sight. Callers hold evalMu.
func (r *Router) evalDenseLocked(id int64) graph.NodeID {
	if d, ok := r.evalRemap[id]; ok {
		return d
	}
	d := graph.NodeID(len(r.evalRemap))
	r.evalRemap[id] = d
	return d
}

// Flush fans a snapshot publish to every shard and reports the maximum
// resulting epoch.
func (r *Router) Flush(ctx context.Context) (int64, error) {
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		maxSeq int64 = -1
		anyOK  bool
	)
	for i, base := range r.cfg.Shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			var out struct {
				SnapshotSeq int64 `json:"snapshot_seq"`
			}
			if err := r.postJSON(ctx, base+"/flush", nil, &out); err != nil {
				return
			}
			r.lastSeq[i].Store(out.SnapshotSeq)
			mu.Lock()
			anyOK = true
			if out.SnapshotSeq > maxSeq {
				maxSeq = out.SnapshotSeq
			}
			mu.Unlock()
		}(i, base)
	}
	wg.Wait()
	if !anyOK {
		return 0, ErrAllShardsDown
	}
	return maxSeq, nil
}

// Score answers one /score body. On a replicated cluster every shard holds
// the full graph, so the body forwards to a single shard (round-robin with
// failover) and the raw response passes through untouched. On a partitioned
// cluster no single shard can score an arbitrary pair, so the body
// broadcasts to every shard and the router keeps, per pair, the answer from
// the shard that flagged it Owned — ownership is a disjoint cover, so
// exactly one shard is authoritative for each resolvable pair.
func (r *Router) Score(ctx context.Context, body []byte) (status int, respBody []byte, err error) {
	if r.cfg.Partitioned {
		return r.scoreBroadcast(ctx, body)
	}
	n := len(r.cfg.Shards)
	start := int(r.rr.Add(1)-1) % n
	var lastErr error
	for off := 0; off < n; off++ {
		base := r.cfg.Shards[(start+off)%n]
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/score", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if obs.Enabled() {
			obs.GetCounter("cluster/score_forwarded").Inc()
		}
		return resp.StatusCode, raw, nil
	}
	return 0, nil, fmt.Errorf("cluster: score forward failed on all shards: %w", lastErr)
}

// scoreBroadcast fans one /score body to every partitioned shard, aligns
// the responses on the maximum snapshot epoch (bounded re-asks, as in
// Predict), and merges by the Owned flag. A pair whose owning shard is down
// or stale scores zero — the same value a single node reports for an
// unresolvable pair — rather than failing the whole request. A non-200
// from any shard (unknown algorithm, partition-unsupported family) passes
// through as the response: the shards share one configuration, so they
// agree on rejections.
func (r *Router) scoreBroadcast(ctx context.Context, body []byte) (int, []byte, error) {
	n := len(r.cfg.Shards)
	got := make([]*serve.Result, n)
	var non200Status int
	var non200Raw []byte
	gather := func(shards []int) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for _, i := range shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				status, raw, err := r.postRaw(ctx, r.cfg.Shards[i]+"/score", body)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					got[i] = nil
					return
				}
				if status != http.StatusOK {
					if non200Status == 0 {
						non200Status, non200Raw = status, raw
					}
					got[i] = nil
					return
				}
				var res serve.Result
				if json.Unmarshal(raw, &res) != nil {
					got[i] = nil
					return
				}
				r.lastSeq[i].Store(res.SnapshotSeq)
				got[i] = &res
			}(i)
		}
		wg.Wait()
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	gather(all)
	if non200Status != 0 {
		return non200Status, non200Raw, nil
	}
	maxSeq := func() int64 {
		var m int64 = -1
		for _, res := range got {
			if res != nil && res.SnapshotSeq > m {
				m = res.SnapshotSeq
			}
		}
		return m
	}
	target := maxSeq()
	if target < 0 {
		return 0, nil, ErrAllShardsDown
	}
	for try := 0; try < r.cfg.EpochRetries; try++ {
		var stale []int
		for i, res := range got {
			if res != nil && res.SnapshotSeq < target {
				stale = append(stale, i)
			}
		}
		if len(stale) == 0 {
			break
		}
		if r.cfg.EpochBackoff > 0 {
			select {
			case <-time.After(r.cfg.EpochBackoff):
			case <-ctx.Done():
				return 0, nil, ctx.Err()
			}
		}
		gather(stale)
		if m := maxSeq(); m > target {
			target = m
		}
	}
	var base *serve.Result
	for _, res := range got {
		if res != nil && res.SnapshotSeq == target {
			base = res
			break
		}
	}
	if base == nil {
		return 0, nil, ErrAllShardsDown
	}
	// The merged payload carries plain scores with the Owned flags dropped:
	// a full broadcast serializes exactly like a single replicated node's
	// score response.
	out := *base
	out.Pairs = make([]serve.PairScore, len(base.Pairs))
	for i := range base.Pairs {
		ps := serve.PairScore{U: base.Pairs[i].U, V: base.Pairs[i].V}
		for _, res := range got {
			if res == nil || res.SnapshotSeq != target || i >= len(res.Pairs) {
				continue
			}
			if res.Pairs[i].Owned {
				ps.Score = res.Pairs[i].Score
				break
			}
		}
		out.Pairs[i] = ps
	}
	raw, err := json.Marshal(&out)
	if err != nil {
		return 0, nil, err
	}
	if obs.Enabled() {
		obs.GetCounter("cluster/score_broadcasts").Inc()
	}
	// handleScore on a worker answers via json.Encoder, which terminates
	// with a newline; match it so the broadcast is byte-compatible.
	return http.StatusOK, append(raw, '\n'), nil
}

// postRaw posts body and returns the raw status and payload.
func (r *Router) postRaw(ctx context.Context, u string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

// Health probes every shard and aggregates. OK requires all shards up with
// zero epoch skew.
func (r *Router) Health(ctx context.Context) *ClusterHealth {
	n := len(r.cfg.Shards)
	out := &ClusterHealth{Shards: n, Workers: make([]ShardHealth, n)}
	var wg sync.WaitGroup
	for i, base := range r.cfg.Shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			w := ShardHealth{Shard: i, URL: base}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
			if err == nil {
				var resp *http.Response
				resp, err = r.client.Do(req)
				if err == nil {
					err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&w.Health)
					resp.Body.Close()
				}
			}
			if err != nil {
				w.Err = err.Error()
			} else {
				w.Up = true
				r.lastSeq[i].Store(w.SnapshotSeq)
			}
			out.Workers[i] = w
		}(i, base)
	}
	wg.Wait()
	var lo, hi int64
	maxEdges := 0
	first := true
	for _, w := range out.Workers {
		if !w.Up {
			continue
		}
		out.ShardsUp++
		out.SnapshotBytes += w.SnapshotBytes
		if w.PartitionRange != nil {
			out.Partitioned = true
		}
		if w.TraceEdges > maxEdges {
			maxEdges = w.TraceEdges
		}
		if first || w.SnapshotSeq < lo {
			lo = w.SnapshotSeq
		}
		if first || w.SnapshotSeq > hi {
			hi = w.SnapshotSeq
		}
		first = false
	}
	// A recovering shard is up and self-consistent but behind the
	// replicated stream: its trace is shorter than the most advanced up
	// shard's. Flag it so operators can tell "replaying after restart"
	// apart from "down".
	for i := range out.Workers {
		w := &out.Workers[i]
		if w.Up && w.TraceEdges < maxEdges {
			w.CatchingUp = true
			out.CatchingUp++
		}
	}
	out.EpochSkew = hi - lo
	out.OK = out.ShardsUp == n && out.EpochSkew == 0 && out.CatchingUp == 0
	if obs.Enabled() {
		obs.GetGauge("cluster/shards_up").Set(float64(out.ShardsUp))
		obs.GetGauge("cluster/shards_catching_up").Set(float64(out.CatchingUp))
		obs.GetGauge("cluster/snapshot_bytes").Set(float64(out.SnapshotBytes))
		partBytes := 0.0
		if out.Partitioned {
			partBytes = float64(out.SnapshotBytes)
		}
		obs.GetGauge("cluster/partitioned_bytes").Set(partBytes)
	}
	return out
}

// postJSON posts body (nil allowed) and decodes a 200 response into out
// (nil allowed).
func (r *Router) postJSON(ctx context.Context, u string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s status %d: %s", u, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}
