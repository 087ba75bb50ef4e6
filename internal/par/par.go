// Package par is the shared fan-out primitive underneath the prediction
// engine and the parallel linear-algebra backend. It splits an index range
// into contiguous chunks that workers claim dynamically, which rebalances
// the skewed per-row costs of power-law graphs without giving up the
// determinism contract: a chunk is a set of output indices, every index is
// processed by exactly one worker, and the per-index work never depends on
// which worker ran it.
package par

import (
	"context"
	"sync"
	"sync/atomic"

	"linkpred/internal/obs"
)

// ShardMin is the default range size below which goroutine fan-out costs
// more than the work itself; smaller ranges run on the calling goroutine.
const ShardMin = 128

// chunksPerWorker oversplits the range so dynamically claimed chunks
// rebalance skewed per-index costs.
const chunksPerWorker = 8

// ShardRange splits [0, n) into contiguous chunks and fans them out over
// workers goroutines. Chunks are claimed dynamically; body receives the
// claiming worker's index so callers can keep per-worker scratch state
// (invocations for the same worker never overlap, so that state needs no
// locking). Ranges smaller than ShardMin run serially.
func ShardRange(n, workers int, body func(worker, lo, hi int)) {
	ShardRangeMin(n, workers, ShardMin, body)
}

// ShardRangeCtx is ShardRangeMin with cooperative cancellation: the chunk
// claim loop checks ctx before every claim and stops claiming once the
// context is cancelled, so a cancelled fan-out returns within one chunk of
// work per worker. Chunks already claimed always run to completion — a chunk
// is the cancellation granularity, which keeps the per-index work free of
// cancellation checks and the determinism contract intact: a fan-out whose
// context is never cancelled produces exactly the same per-index calls as
// ShardRangeMin. The returned error is ctx.Err() when the range was cut
// short, nil when every index ran. A nil or never-cancellable context takes
// the uninstrumented ShardRangeMin path.
func ShardRangeCtx(ctx context.Context, n, workers, min int, body func(worker, lo, hi int)) error {
	if ctx == nil || ctx.Done() == nil {
		ShardRangeMin(n, workers, min, body)
		return nil
	}
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	// The serial path is chunked too (unlike ShardRangeMin's single body
	// call), so even a one-worker sweep honors the one-chunk cancellation
	// bound.
	if workers < 1 {
		workers = 1
	}
	chunks := workers * chunksPerWorker
	size := (n + chunks - 1) / chunks
	if workers <= 1 || n < min {
		for lo := 0; lo < n; lo += size {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			body(0, lo, minInt(lo+size, n))
		}
		return ctx.Err()
	}
	track := obs.Enabled()
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			claimed := int64(0)
			for ctx.Err() == nil {
				c := int(atomic.AddInt64(&next, 1)) - 1
				lo := c * size
				if lo >= n {
					break
				}
				body(w, lo, minInt(lo+size, n))
				claimed++
			}
			if track && claimed > 0 {
				obs.AddWorkerChunks(w, claimed)
				obs.GetCounter("engine/chunks_claimed").Add(claimed)
				obs.GetHistogram("engine/chunks_per_worker").Observe(claimed)
			}
		}(w)
	}
	wg.Wait()
	if track {
		obs.GetCounter("engine/shard_fanouts").Inc()
	}
	return ctx.Err()
}

// LimitWorkers clamps a requested worker count so each worker gets at least
// minWork units of estimated total work. Fan-out has a fixed cost per
// goroutine (spawn, chunk claims, heap merge); on tiny inputs that overhead
// exceeds the sweep itself and parallelism turns into the small-graph
// regression PR 6 measured on renren@0.2 (JC 0.83x at 4 workers). Callers
// estimate work in whatever unit dominates their loop (wedge visits for the
// local sweeps) and the clamp keeps sub-threshold inputs serial. The result
// depends only on (workers, work, minWork), never on timing, so clamped
// sweeps keep the worker-invariance contract: output is bit-identical
// because the engine is bit-identical at every worker count anyway — the
// clamp only removes overhead.
func LimitWorkers(workers int, work, minWork int64) int {
	if minWork <= 0 || workers <= 1 {
		return workers
	}
	max := int(work / minWork)
	if max < 1 {
		max = 1
	}
	if workers > max {
		return max
	}
	return workers
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ShardRangeMin is ShardRange with an explicit serial-fallback threshold.
// Callers whose per-index work is heavy (a whole supernode pairing sweep, a
// dense matrix row block) pass a small min so even short ranges fan out.
func ShardRangeMin(n, workers, min int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < min {
		body(0, 0, n)
		return
	}
	chunks := workers * chunksPerWorker
	size := (n + chunks - 1) / chunks
	// track is resolved once per fan-out: per-chunk accounting stays in a
	// goroutine-local counter and flushes to obs after the worker drains,
	// so the claim loop itself carries no telemetry cost.
	track := obs.Enabled()
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			claimed := int64(0)
			for {
				c := int(atomic.AddInt64(&next, 1)) - 1
				lo := c * size
				if lo >= n {
					break
				}
				hi := lo + size
				if hi > n {
					hi = n
				}
				body(w, lo, hi)
				claimed++
			}
			if track && claimed > 0 {
				obs.AddWorkerChunks(w, claimed)
				obs.GetCounter("engine/chunks_claimed").Add(claimed)
				obs.GetHistogram("engine/chunks_per_worker").Observe(claimed)
			}
		}(w)
	}
	wg.Wait()
	if track {
		obs.GetCounter("engine/shard_fanouts").Inc()
	}
}
