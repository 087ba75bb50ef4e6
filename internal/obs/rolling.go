package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Rolling is a sliding-window sample accumulator: it keeps the samples
// observed over the trailing window (bounded by a fixed capacity) and
// reports their count, rate, and quantiles. It complements the cumulative
// Counter/Histogram pair: a cumulative counter needs a scraper to turn two
// readings into a rate, while a Rolling window is readable directly from a
// single /metrics hit — "requests per second right now", "p95 over the last
// minute" — which is what an operator tailing a dump file actually wants.
//
// Recording takes a mutex; at serving-request frequencies (not per-pair
// scoring frequencies) this is cheap. When the capacity fills inside the
// window, the oldest samples are dropped and the snapshot reports a
// clipped window so rates stay honest.
type Rolling struct {
	window time.Duration
	listed

	mu    sync.Mutex
	times []int64 // arrival times, circular
	vals  []int64 // sample values, circular
	head  int     // index of oldest live sample
	n     int     // live samples
}

// rollingCap bounds the samples a Rolling window retains.
const rollingCap = 4096

// rollingNow is the windows' nanosecond clock: wall time, unless a test
// froze it with SetRollingClock.
func rollingNow() int64 {
	if p := rollingClock.Load(); p != nil {
		return (*p)()
	}
	return time.Now().UnixNano()
}

// reset empties and unlists the window in place.
func (r *Rolling) reset() {
	r.mu.Lock()
	r.head, r.n = 0, 0
	r.mu.Unlock()
	r.on.Store(false)
}

// Add records one sample at the current time while telemetry is on.
func (r *Rolling) Add(v int64) {
	if r == nil || !enabled.Load() {
		return
	}
	r.mark()
	now := rollingNow()
	r.mu.Lock()
	if r.times == nil { // registered windows cost nothing until they record
		r.times, r.vals = make([]int64, rollingCap), make([]int64, rollingCap)
	}
	r.evict(now)
	if r.n == len(r.times) { // capacity full: drop the oldest
		r.head = (r.head + 1) % len(r.times)
		r.n--
	}
	i := (r.head + r.n) % len(r.times)
	r.times[i] = now
	r.vals[i] = v
	r.n++
	r.mu.Unlock()
}

// evict drops samples older than the window. Callers hold r.mu.
func (r *Rolling) evict(now int64) {
	cutoff := now - int64(r.window)
	for r.n > 0 && r.times[r.head] < cutoff {
		r.head = (r.head + 1) % len(r.times)
		r.n--
	}
}

// RollingSnapshot summarizes a sliding window: the samples observed over
// the trailing WindowSeconds, their per-second arrival rate, and value
// quantiles. It appears in the telemetry Dump and, as a family of gauges,
// in the Prometheus exposition.
type RollingSnapshot struct {
	WindowSeconds float64 `json:"window_seconds"`
	Count         int64   `json:"count"`
	Sum           int64   `json:"sum"`
	Rate          float64 `json:"rate"`
	P50           int64   `json:"p50"`
	P95           int64   `json:"p95"`
	P99           int64   `json:"p99"`
}

// Snapshot evicts expired samples and summarizes the live window.
func (r *Rolling) Snapshot() RollingSnapshot {
	if r == nil {
		return RollingSnapshot{}
	}
	now := rollingNow()
	r.mu.Lock()
	r.evict(now)
	s := RollingSnapshot{WindowSeconds: r.window.Seconds(), Count: int64(r.n)}
	if r.n == 0 {
		r.mu.Unlock()
		return s
	}
	live := make([]int64, r.n)
	for i := 0; i < r.n; i++ {
		live[i] = r.vals[(r.head+i)%len(r.times)]
	}
	// When capacity clipped the window, rate over the clipped span (oldest
	// retained sample to now) rather than the nominal window.
	span := r.window
	if oldest := r.times[r.head]; now-oldest < int64(r.window) && r.n == len(r.times) {
		span = time.Duration(now - oldest)
		if span <= 0 {
			span = time.Nanosecond
		}
	}
	r.mu.Unlock()
	for _, v := range live {
		s.Sum += v
	}
	s.Rate = float64(s.Count) / span.Seconds()
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	q := func(q float64) int64 {
		i := int(q * float64(len(live)))
		if i >= len(live) {
			i = len(live) - 1
		}
		return live[i]
	}
	s.P50, s.P95, s.P99 = q(0.50), q(0.95), q(0.99)
	return s
}

// rollings is the registry of named Rolling windows. Unlike counters it
// also remembers each window's length, fixed at first GetRolling.
var rollings sync.Map // string -> *Rolling

// rollingClock lets tests freeze the registry's clock; nil = wall time.
var rollingClock atomic.Pointer[func() int64]

// SetRollingClock overrides the clock of every Rolling window for
// deterministic golden tests; pass nil to restore wall time.
func SetRollingClock(clock func() int64) {
	if clock == nil {
		rollingClock.Store(nil)
		return
	}
	rollingClock.Store(&clock)
}

// GetRolling returns the named sliding window, registering it with the
// given window length on first use (later calls ignore the argument).
func GetRolling(name string, window time.Duration) *Rolling {
	return getOrCreate(&rollings, name, func() *Rolling { return &Rolling{window: window} })
}
