// Package cluster implements horizontal scale-out for prediction serving:
// a thin router in front of N linkpredd workers, each answering for one
// contiguous source-node shard of the candidate universe (DESIGN.md §12).
//
// The scatter/gather contract: every shard holds the FULL graph (ingest is
// replicated to all shards in identical order), but /predict?shard=i&shards=N
// restricts the sweep to pairs owned by shard i — those whose min endpoint
// falls in predict.WeightedSourceRangeFor(g, i, N, predict.CostModelFor(alg)),
// a cost-balanced contiguous split every shard derives from its own copy of
// the snapshot. The shard ranges partition the dense node space, so the
// union of the shards' ownership universes is exactly the unrestricted
// candidate universe, and merging the N partial top-k lists
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
	// Shards[i] answers for predict.WeightedSourceRangeFor(g, i,
	// len(Shards), predict.CostModelFor(alg)) on its snapshot g.
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
	// Eval, when set, runs prequential evaluation at the router: every
	// merged (non-partial) /predict response is recorded and every
	// replicated ingest edge is scored against the merged predictions that
	// existed before it arrived. This measures what the cluster actually
	// serves — shard-local evaluation cannot see the merged ranking. The
	// live series appear in the router's /metrics.
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

// IngestResult reports one replicated ingest fan-out: the first healthy
// shard's own reply (all healthy shards agree by construction) plus the
// router's divergence count.
type IngestResult struct {
	serve.IngestResponse
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
// up shards' resident adjacency footprints.
type ClusterHealth struct {
	OK        bool  `json:"ok"`
	Shards    int   `json:"shards"`
	ShardsUp  int   `json:"shards_up"`
	EpochSkew int64 `json:"epoch_skew"`
	// CatchingUp counts up shards still replaying missed ingest after a
	// crash-recovery restart (see ShardHealth.CatchingUp).
	CatchingUp    int           `json:"catching_up,omitempty"`
	SnapshotBytes int64         `json:"snapshot_bytes"`
	Workers       []ShardHealth `json:"workers"`
}

// ErrAllShardsDown reports a gather in which no shard produced a usable
// response.
var ErrAllShardsDown = errors.New("cluster: all shards down")

// ShardRejection is a shard's deterministic client-error refusal (unknown
// algorithm, bad k). All shards share one configuration, so retrying or
// hedging cannot change the answer; the gather surfaces the refusal with its
// original status instead of misreporting a healthy cluster as an outage.
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
// The file is four pieces that each exist once (DESIGN.md §12), mechanism
// first: call is the transport every request goes through, fanOut the one
// "ask these shards in parallel", alignedGather the one same-epoch gather
// (fetchShard is its retry/hedge policy per shard), and merge plus
// missingRanges turn a gather into a response. Predict, Score, Ingest,
// Flush and Health are policy over those.
//
// Shard recovery (ROADMAP item 4's debt): a shard that misses ingest batches
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
	// all lists every shard index: the fan-out's usual target.
	all []int

	// ingestMu serializes ingest fan-outs so every shard applies batches
	// in the same order — the whole epoch-consistency protocol rests on
	// identical traces producing identical snapshot sequences.
	ingestMu sync.Mutex

	// rr round-robins /score forwards across shards.
	rr atomic.Uint64

	// lastSeq tracks each shard's most recently observed snapshot epoch,
	// feeding the epoch-skew gauge.
	lastSeq []atomic.Int64

	// evalIDs and evalEdges are the router-side prequential mirror
	// (Config.Eval): the replicated event stream admitted through the same
	// serve.IDMap rule the workers apply, so the router's dense IDs and
	// trace indices match every shard's. Ingest (already serialized by
	// ingestMu) extends it; Predict reads it to record merged rankings in
	// dense space. Only the accepted-edge count is kept, not the edges.
	evalIDs   *serve.IDMap
	evalEdges atomic.Int64
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
	for i := range cfg.Shards {
		r.all = append(r.all, i)
	}
	if cfg.Eval != nil {
		r.evalIDs = serve.NewIDMap(nil, nil)
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

// Response-size caps, checked on everything a shard sends back.
const (
	resultCap = 64 << 20 // /predict and /score bodies
	ackCap    = 1 << 20  // /ingest, /flush and /healthz replies
)

// call is the router's one transport: every request to a shard is built,
// sent and read here. It returns whatever answered — status and body, read
// up to limit bytes — and an error only when the round trip itself failed.
func (r *Router) call(ctx context.Context, shard int, method, path string, body []byte, limit int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, r.cfg.Shards[shard]+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	return resp.StatusCode, raw, err
}

// postJSON posts body (nil allowed) to one shard and decodes its 200 reply
// into out.
func (r *Router) postJSON(ctx context.Context, shard int, path string, body []byte, out any) error {
	status, raw, err := r.call(ctx, shard, http.MethodPost, path, body, ackCap)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster: %s%s status %d: %s", r.cfg.Shards[shard], path, status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// getResult asks one shard for /predict?query and decodes the serve.Result.
// A 4xx becomes a ShardRejection; the per-shard latency histogram records
// successes only.
func (r *Router) getResult(ctx context.Context, shard int, query string) (*serve.Result, error) {
	start := time.Now()
	status, body, err := r.call(ctx, shard, http.MethodGet, "/predict?"+query, nil, resultCap)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		if status >= 400 && status < 500 {
			msg := string(bytes.TrimSpace(body))
			var env struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(body, &env) == nil && env.Error != "" {
				msg = env.Error
			}
			return nil, &ShardRejection{Status: status, Msg: msg}
		}
		return nil, fmt.Errorf("cluster: shard status %d: %s", status, bytes.TrimSpace(body))
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

// fanOut runs fn(i) for every listed shard in parallel and returns when all
// have. Each fn writes only its own shard's slot of whatever the caller
// collects into, so the collection needs no lock.
func fanOut(shards []int, fn func(shard int)) {
	var wg sync.WaitGroup
	for _, i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// gather is the outcome of one alignedGather.
type gather struct {
	// got[i] is shard i's latest answer (nil: it failed) and errs[i] its
	// latest failure.
	got  []*serve.Result
	errs []error
	// target is the newest snapshot epoch any shard answered from, -1 when
	// none answered. A non-negative target is held by at least one shard:
	// only shards behind it are ever re-asked.
	target int64
	// reasks counts the epoch re-asks issued.
	reasks int
}

// aligned returns the answers computed against the target epoch, in shard
// order: the only ones a merge may combine.
func (g *gather) aligned() []*serve.Result {
	var out []*serve.Result
	for _, res := range g.got {
		if res != nil && res.SnapshotSeq == g.target {
			out = append(out, res)
		}
	}
	return out
}

// alignedGather is the one epoch-aligned gather: ask every shard for its
// alg/k partial list, take the newest snapshot epoch among the answers, and
// re-ask the shards that answered from an older one — up to EpochRetries
// rounds, EpochBackoff apart, since a re-ask may itself raise the target
// (the straggler published again while we waited). Shards that failed are
// not re-asked; how hard one ask tries is fetchShard's business.
func (r *Router) alignedGather(ctx context.Context, alg string, k int) (*gather, error) {
	n := len(r.cfg.Shards)
	g := &gather{got: make([]*serve.Result, n), errs: make([]error, n), target: -1}
	ask := func(shards []int) {
		fanOut(shards, func(i int) { g.got[i], g.errs[i] = r.fetchShard(ctx, i, alg, k) })
		for i, res := range g.got {
			if res != nil {
				r.lastSeq[i].Store(res.SnapshotSeq)
				g.target = max(g.target, res.SnapshotSeq)
			}
		}
	}
	ask(r.all)
	for try := 0; try < r.cfg.EpochRetries; try++ {
		var stale []int
		for i, res := range g.got {
			if res != nil && res.SnapshotSeq < g.target {
				stale = append(stale, i)
			}
		}
		if len(stale) == 0 {
			break
		}
		g.reasks += len(stale)
		select {
		case <-time.After(r.cfg.EpochBackoff):
		case <-ctx.Done():
			return g, ctx.Err()
		}
		ask(stale)
	}
	return g, nil
}

// fetchShard asks shard i for its partial top-k, with one retry on failure
// and one hedged backup after cfg.HedgeAfter. At most two attempts are ever
// in flight; the first success wins and cancels the other.
func (r *Router) fetchShard(ctx context.Context, shard int, alg string, k int) (*serve.Result, error) {
	query := serve.PredictQuery{Alg: alg, K: k, Shard: shard, Shards: len(r.cfg.Shards)}.Encode()
	type attempt struct {
		res *serve.Result
		err error
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attempt, 2)
	launch := func() {
		go func() {
			res, err := r.getResult(ctx, shard, query)
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
	g, err := r.alignedGather(ctx, alg, k)
	if obs.Enabled() && g.reasks > 0 {
		obs.GetCounter("cluster/epoch_reasks").Add(int64(g.reasks))
	}
	if err != nil {
		return nil, err
	}
	if g.target < 0 {
		for _, err := range g.errs {
			var rej *ShardRejection
			if errors.As(err, &rej) {
				return nil, rej
			}
		}
		return nil, ErrAllShardsDown
	}
	out := &Response{}
	if len(g.got) == 1 {
		// A single-shard cluster needs no merge: the worker answered the
		// unrestricted sweep (shards=1 disables range restriction
		// server-side, so the response carries no dense IDs to merge on)
		// and its result passes through whole.
		out.Result = *g.got[0]
	} else {
		out.Result = r.merge(g.aligned(), k)
		out.Alg = alg
		out.MissingRanges = missingRanges(g.got, g.target)
		out.Partial = len(out.MissingRanges) > 0
	}
	if obs.Enabled() {
		if out.Partial {
			obs.GetCounter("cluster/gather_partial").Inc()
		} else {
			obs.GetCounter("cluster/gather_full").Inc()
		}
	}
	r.recordEval(out)
	return out, nil
}

// missingRanges lists the source ranges no shard aligned on target answered
// for: dead or still-stale shards contribute their owned ranges. The
// boundaries are derived from the aligned responses: the split is
// degree-weighted and computed shard-side from the snapshot under the
// requested algorithm's cost model (predict.WeightedSourceRangeFor with
// predict.CostModelFor), so the router cannot reconstruct a dead
// shard's range alone — but the ranges are contiguous and ordered by shard
// index, so a run of unanswered shards owns exactly the gap between its
// alive neighbors' boundaries (closed by 0 on the left and the snapshot's
// node count on the right). An empty gap means the unanswered shards owned
// no sources (more shards than weight to split); nothing is missing then.
func missingRanges(got []*serve.Result, target int64) [][2]int {
	var missing [][2]int
	numNodes, prevHi, gap := 0, 0, false
	for _, res := range got {
		if res == nil || res.SnapshotSeq != target || res.ShardRange == nil {
			gap = true
			continue
		}
		numNodes = max(numNodes, res.SnapshotNodes)
		if gap && res.ShardRange[0] > prevHi {
			missing = append(missing, [2]int{prevHi, res.ShardRange[0]})
		}
		prevHi, gap = res.ShardRange[1], false
	}
	if gap && numNodes > prevHi {
		missing = append(missing, [2]int{prevHi, numNodes})
	}
	return missing
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
	traceLen := int(r.evalEdges.Load())
	ranked := make([][2]graph.NodeID, 0, len(out.Pairs))
	for _, p := range out.Pairs {
		u, uok := r.evalIDs.Lookup(p.U)
		v, vok := r.evalIDs.Lookup(p.V)
		if uok && vok {
			ranked = append(ranked, [2]graph.NodeID{u, v})
		}
	}
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
	acks, errs := make([]serve.IngestResponse, len(r.all)), make([]error, len(r.all))
	fanOut(r.all, func(i int) { errs[i] = r.postJSON(ctx, i, "/ingest", body, &acks[i]) })
	var out *IngestResult
	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			if obs.Enabled() {
				obs.GetCounter("cluster/ingest_errors").Inc()
			}
			continue
		}
		r.lastSeq[i].Store(acks[i].SnapshotSeq)
		if out == nil {
			out = &IngestResult{IngestResponse: acks[i]}
		}
	}
	if out == nil {
		return nil, ErrAllShardsDown
	}
	r.observeEval(events)
	if obs.Enabled() {
		obs.GetCounter("cluster/ingest_replicated").Inc()
	}
	out.ShardErrors = failed
	return out, nil
}

// observeEval replays one replicated batch into the router's prequential
// mirror. Admission is serve.IDMap's — the rule serve.(*Server).Ingest
// applies — and an admitted event cannot be refused by the trace append
// that follows it on a worker, so the mirror's dense IDs and trace indices
// are identical to every worker's without keeping the trace. Each accepted
// edge is scored against the merged predictions recorded before it arrived.
// Callers hold ingestMu.
func (r *Router) observeEval(events []serve.Event) {
	if r.cfg.Eval == nil {
		return
	}
	for _, ev := range events {
		if u, v, ok := r.evalIDs.Admit(ev); ok {
			r.cfg.Eval.ObserveEdge(u, v, int(r.evalEdges.Add(1))-1)
		}
	}
}

// Flush fans a snapshot publish to every shard and reports the maximum
// resulting epoch.
func (r *Router) Flush(ctx context.Context) (int64, error) {
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	acks, errs := make([]serve.FlushResponse, len(r.all)), make([]error, len(r.all))
	fanOut(r.all, func(i int) { errs[i] = r.postJSON(ctx, i, "/flush", nil, &acks[i]) })
	maxSeq := int64(-1)
	for i, err := range errs {
		if err == nil {
			r.lastSeq[i].Store(acks[i].SnapshotSeq)
			maxSeq = max(maxSeq, acks[i].SnapshotSeq)
		}
	}
	if maxSeq < 0 {
		return 0, ErrAllShardsDown
	}
	return maxSeq, nil
}

// Score answers one /score body. Every shard holds the full graph, so the
// body forwards to a single shard (round-robin with failover) and the raw
// response passes through untouched.
func (r *Router) Score(ctx context.Context, body []byte) (status int, respBody []byte, err error) {
	n := len(r.cfg.Shards)
	start := int(r.rr.Add(1)-1) % n
	var lastErr error
	for off := 0; off < n; off++ {
		status, raw, err := r.call(ctx, (start+off)%n, http.MethodPost, "/score", body, resultCap)
		if err != nil {
			lastErr = err
			continue
		}
		if obs.Enabled() {
			obs.GetCounter("cluster/score_forwarded").Inc()
		}
		return status, raw, nil
	}
	return 0, nil, fmt.Errorf("cluster: score forward failed on all shards: %w", lastErr)
}

// Health probes every shard and aggregates. OK requires all shards up with
// zero epoch skew.
func (r *Router) Health(ctx context.Context) *ClusterHealth {
	n := len(r.cfg.Shards)
	out := &ClusterHealth{Shards: n, Workers: make([]ShardHealth, n)}
	fanOut(r.all, func(i int) {
		w := &out.Workers[i]
		w.Shard, w.URL = i, r.cfg.Shards[i]
		status, raw, err := r.call(ctx, i, http.MethodGet, "/healthz", nil, ackCap)
		if err == nil && status != http.StatusOK {
			// An error envelope would decode to a zero Health: up, epoch 0.
			err = fmt.Errorf("cluster: healthz status %d: %s", status, bytes.TrimSpace(raw))
		}
		if err == nil {
			err = json.Unmarshal(raw, &w.Health)
		}
		if err != nil {
			w.Err = err.Error()
			return
		}
		w.Up = true
		r.lastSeq[i].Store(w.SnapshotSeq)
	})
	var lo, hi int64
	maxEdges := 0
	for _, w := range out.Workers {
		if !w.Up {
			continue
		}
		if out.ShardsUp == 0 || w.SnapshotSeq < lo {
			lo = w.SnapshotSeq
		}
		if out.ShardsUp == 0 || w.SnapshotSeq > hi {
			hi = w.SnapshotSeq
		}
		out.ShardsUp++
		out.SnapshotBytes += w.SnapshotBytes
		maxEdges = max(maxEdges, w.TraceEdges)
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
	}
	return out
}
