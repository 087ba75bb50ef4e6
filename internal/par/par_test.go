package par

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

var testWorkers = []int{1, 2, 7}

// TestShardRangeCtxCoversOnce: every index of [0, n) reaches body exactly
// once, whatever the worker count, on both the nil-context path and the
// chunk-checking path a live context takes, above and below the serial
// threshold.
func TestShardRangeCtxCoversOnce(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, ctx := range []context.Context{nil, live} {
		for _, n := range []int{0, 1, ShardMin - 1, ShardMin, 1000} {
			for _, w := range testWorkers {
				hits := make([]int32, n)
				err := ShardRangeCtx(ctx, n, w, ShardMin, func(worker, lo, hi int) {
					if worker < 0 || worker >= w || lo < 0 || lo >= hi || hi > n {
						t.Errorf("n=%d workers=%d: body(%d, %d, %d) out of bounds", n, w, worker, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				if err != nil {
					t.Errorf("n=%d workers=%d: err = %v on a live context", n, w, err)
				}
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("n=%d workers=%d ctx=%v: index %d visited %d times", n, w, ctx != nil, i, h)
					}
				}
			}
		}
	}
}

// TestShardRangeCtxStopsWithinOneChunk: once the context is cancelled no
// worker claims more than the one chunk it may already have been cleared
// for, and the call reports the cancellation. A context cancelled up front
// runs nothing.
func TestShardRangeCtxStopsWithinOneChunk(t *testing.T) {
	const n = 100000
	for _, w := range testWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		var total, afterCancel int32
		err := ShardRangeCtx(ctx, n, w, ShardMin, func(_, lo, hi int) {
			if ctx.Err() != nil {
				atomic.AddInt32(&afterCancel, 1)
			}
			atomic.AddInt32(&total, 1)
			once.Do(cancel)
		})
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		// Only the workers that passed the check before the cancel landed
		// can still start a chunk: at most one each, none for the canceller.
		if int(afterCancel) > w-1 {
			t.Errorf("workers=%d: %d chunks started after cancel, want <= %d", w, afterCancel, w-1)
		}
		if w == 1 && total != 1 {
			t.Errorf("serial path ran %d chunks after a cancel in the first, want 1", total)
		}

		total = 0
		if err := ShardRangeCtx(ctx, n, w, ShardMin, func(_, _, _ int) { atomic.AddInt32(&total, 1) }); err != context.Canceled || total != 0 {
			t.Errorf("workers=%d: pre-cancelled context ran %d chunks, err %v", w, total, err)
		}
	}
}

func TestLimitWorkers(t *testing.T) {
	for _, tt := range []struct {
		workers       int
		work, minWork int64
		want          int
	}{
		{8, 1000, 100, 8},  // enough work for everyone
		{8, 350, 100, 3},   // floor(work/minWork) workers get a full share
		{8, 99, 100, 1},    // under one share: serial, never zero
		{8, 0, 100, 1},     //
		{1, 0, 100, 1},     // a single worker is never touched
		{0, 1000, 100, 0},  // nor is the "resolve later" zero
		{8, 10, 0, 8},      // minWork <= 0 disables the clamp
		{8, 10, -5, 8},     //
		{3, 1 << 40, 1, 3}, // never raises the request
	} {
		if got := LimitWorkers(tt.workers, tt.work, tt.minWork); got != tt.want {
			t.Errorf("LimitWorkers(%d, %d, %d) = %d, want %d", tt.workers, tt.work, tt.minWork, got, tt.want)
		}
	}
}
