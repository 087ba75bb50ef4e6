package serve

import (
	"context"

	"linkpred/internal/graph"
	"linkpred/internal/predict"
)

type reqKind int

const (
	kindPredict reqKind = iota
	kindScore
)

type outcome struct {
	res *Result
	err error
}

type request struct {
	kind reqKind
	// alg is the requested name and resolved the algorithm it names,
	// resolved once by submit; the worker resolves only a degradation proxy.
	alg      string
	resolved predict.Algorithm
	k        int
	// shards > 1 marks a shard-restricted predict: sweep only the sources
	// owned by shard index shard of shards (computed against the answering
	// snapshot's node count).
	shard, shards int
	// ext holds the queried pairs in external IDs (score only); dense the
	// remapped pairs with ok=false for endpoints unknown at submit time.
	ext   [][2]int64
	dense []densePair
	ctx   context.Context
	done  chan outcome
}

type densePair struct {
	u, v graph.NodeID
	ok   bool
}

// submit resolves the request's algorithm — an unknown name is refused
// before it takes a queue slot — enqueues it (rejecting on overload or
// shutdown) and waits for its outcome. Every enqueued request is answered
// exactly once by the worker pool — deadline handling happens there, so
// the deadline counter counts each expired request exactly once.
func (s *Server) submit(req *request) (*Result, error) {
	a, err := s.cfg.Resolve(req.alg)
	if err != nil {
		return nil, err
	}
	req.resolved = a
	if req.ctx == nil {
		req.ctx = context.Background()
	}
	req.done = make(chan outcome, 1)
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case s.queue <- req:
		s.closeMu.RUnlock()
	default:
		s.closeMu.RUnlock()
		overloadRejected.Inc()
		return nil, ErrOverloaded
	}
	queueDepth.Observe(int64(len(s.queue)))
	out := <-req.done
	return out.res, out.err
}

// worker serves queued requests until Close, then drains the queue with
// ErrClosed so no caller is left waiting. Close sets closed before it
// closes done, and submit enqueues only after checking closed under the
// same lock, so once every worker has drained, the queue stays empty: this
// drain is the only one.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			for {
				select {
				case r := <-s.queue:
					r.done <- outcome{err: ErrClosed}
				default:
					return
				}
			}
		case r := <-s.queue:
			s.serveBatch(r)
		}
	}
}

// serveBatch serves one dequeued request, coalescing queued same-algorithm
// score requests behind a score leader into shared sweeps. Requests are
// grouped in arrival order; any non-score requests swept up by the drain
// are served after the score groups.
func (s *Server) serveBatch(leader *request) {
	batch := []*request{leader}
	if leader.kind == kindScore {
	drain:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case r := <-s.queue:
				batch = append(batch, r)
			default:
				break drain
			}
		}
	}
	snap := s.cur.Load()
	// Bucket score requests by algorithm, preserving arrival order.
	var algOrder []string
	groups := make(map[string][]*request)
	var rest []*request
	for _, r := range batch {
		if r.kind != kindScore {
			rest = append(rest, r)
			continue
		}
		if _, ok := groups[r.alg]; !ok {
			algOrder = append(algOrder, r.alg)
		}
		groups[r.alg] = append(groups[r.alg], r)
	}
	for _, alg := range algOrder {
		s.serveScoreGroup(groups[alg], snap)
	}
	for _, r := range rest {
		s.servePredict(r, snap)
	}
}

// finishDeadline answers a request whose context expired and counts it.
func (s *Server) finishDeadline(r *request) {
	deadlineExceeded.Inc()
	r.done <- outcome{err: r.ctx.Err()}
}
