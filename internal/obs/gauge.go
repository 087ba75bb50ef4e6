package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Gauge is a float64 value that can move in both directions: queue depths,
// in-flight request counts, rolling accuracy estimates, snapshot ages. The
// zero value is ready to use; a nil Gauge ignores all operations. Reads and
// writes are single atomic word operations, cheap enough for per-request
// paths.
type Gauge struct {
	bits atomic.Uint64
	listed
}

// Set replaces the gauge value while telemetry is on.
func (g *Gauge) Set(v float64) {
	if g != nil && enabled.Load() {
		g.bits.Store(math.Float64bits(v))
		g.mark()
	}
}

// Add moves the gauge by delta (negative deltas decrease it) while
// telemetry is on.
func (g *Gauge) Add(delta float64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.mark()
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

var (
	gauges     sync.Map // string -> *Gauge
	gaugeFuncs sync.Map // string -> func() float64
)

// GetGauge returns the named gauge, registering it on first use.
func GetGauge(name string) *Gauge {
	return getOrCreate(&gauges, name, func() *Gauge { return &Gauge{} })
}

// SetGaugeFunc registers a callback gauge: fn is evaluated at every
// Snapshot (and therefore at every /metrics scrape), so the exported value
// is current without anyone pushing updates — the natural shape for
// "seconds since last snapshot publish" or "current queue length".
// Re-registering a name replaces the callback; fn must be safe to call
// concurrently and must not call back into obs.
func SetGaugeFunc(name string, fn func() float64) {
	gaugeFuncs.Store(name, fn)
}
