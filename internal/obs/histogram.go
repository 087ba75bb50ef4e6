package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two histogram buckets: bucket 0
// holds values <= 1, bucket i holds values in [2^(i-1)+1 .. 2^i] (i.e. bit
// length i), which spans the full int64 range — plenty for nanosecond
// latencies and count distributions alike.
const histBuckets = 64

// Histogram is a lock-free distribution of non-negative int64 samples in
// power-of-two buckets. The zero value is ready to use; a nil Histogram
// ignores all operations. Recording costs a handful of uncontended-in-
// practice atomic adds, cheap enough for per-call latency tracking.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	minPlus atomic.Int64 // min+1; 0 means "no samples yet" (samples are clamped >= 0)
	buckets [histBuckets]atomic.Int64
	listed
}

// reset zeroes and unlists the histogram in place.
func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	h.minPlus.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.on.Store(false)
}

func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketHigh returns the inclusive upper bound of bucket b.
func bucketHigh(b int) int64 {
	if b == 0 {
		return 1
	}
	if b >= 63 {
		return 1<<62 + (1<<62 - 1)
	}
	return 1 << b
}

// Observe records one sample while telemetry is on; negative samples
// clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil || !enabled.Load() {
		return
	}
	h.mark()
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.minPlus.Load()
		if cur != 0 && v+1 >= cur {
			break
		}
		if h.minPlus.CompareAndSwap(cur, v+1) {
			break
		}
	}
}

// Start reads the clock for a later Since while telemetry is on; while off
// it returns the zero Time without reading it.
func Start() time.Time {
	if enabled.Load() {
		return time.Now()
	}
	return time.Time{}
}

// Since records the nanoseconds elapsed since start as one sample. While
// telemetry is off, or when start is the zero Time of a Start made while it
// was off, it returns without reading the clock.
func (h *Histogram) Since(start time.Time) {
	if enabled.Load() && !start.IsZero() {
		h.Observe(time.Since(start).Nanoseconds())
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the bucket
// counts, interpolating at each bucket's geometric midpoint.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += h.buckets[b].Load()
		if cum > rank {
			lo := int64(0)
			if b > 0 {
				lo = bucketHigh(b-1) + 1
			}
			hi := bucketHigh(b)
			mid := lo + (hi-lo)/2
			if min := h.minPlus.Load() - 1; mid < min {
				mid = min
			}
			if max := h.max.Load(); mid > max {
				mid = max
			}
			return mid
		}
	}
	return h.max.Load()
}

// HistogramBucket is one nonzero bucket of a snapshot: Count samples with
// values <= Le (and greater than the previous bucket's Le).
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the JSON form of a Histogram.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	Mean    float64           `json:"mean"`
	P50     int64             `json:"p50"`
	P90     int64             `json:"p90"`
	P95     int64             `json:"p95"`
	P99     int64             `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot summarizes the histogram. Concurrent Observe calls may leave the
// summary internally off by a sample; the dump is diagnostic, not a ledger.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	if s.Count == 0 {
		return s
	}
	s.Min = h.minPlus.Load() - 1
	s.Max = h.max.Load()
	s.Mean = float64(s.Sum) / float64(s.Count)
	s.P50 = h.Quantile(0.50)
	s.P90 = h.Quantile(0.90)
	s.P95 = h.Quantile(0.95)
	s.P99 = h.Quantile(0.99)
	for b := 0; b < histBuckets; b++ {
		if c := h.buckets[b].Load(); c != 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{Le: bucketHigh(b), Count: c})
		}
	}
	return s
}
