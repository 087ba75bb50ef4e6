// Package obs is the pipeline's zero-dependency telemetry layer: atomic
// counters, lock-cheap log2-bucket histograms, hierarchical spans, and the
// export surfaces (JSON dump, expvar-style HTTP handler, opt-in pprof
// server, periodic progress logging) the cmd binaries wire up.
//
// Collection is off by default and guarded by a single package-level flag
// that every recording method checks first: a metric handle resolved once
// costs one atomic load per call while disabled, so call sites need no
// guard of their own unless they skip other work (a clock read, an
// allocation) when telemetry is off. Telemetry only observes — it never
// feeds back into scoring, ranking, or tie-breaking — so enabling it cannot
// perturb the engine's bit-identical deterministic output (proved by
// TestTelemetryPreservesDeterminism in internal/predict).
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// enabled gates all collection. Off by default.
var enabled atomic.Bool

// Enable switches telemetry collection on or off. The gate sits inside
// every recording method, so a metric handle resolved once keeps working
// across toggles: it records while on and ignores calls while off.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether telemetry collection is on. Callers need it only
// to skip work of their own (a clock read, an allocation) when off.
func Enabled() bool { return enabled.Load() }

// listed marks a registered metric as part of the Snapshot. Get* registers
// a metric unlisted; its first record while telemetry is on lists it, and
// Reset unlists it again, so resolving a handle early changes no dump.
type listed struct{ on atomic.Bool }

func (l *listed) mark() {
	if !l.on.Load() {
		l.on.Store(true)
	}
}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores all operations.
type Counter struct {
	v atomic.Int64
	listed
}

// Add increments the counter by n while telemetry is on.
func (c *Counter) Add(n int64) {
	if c != nil && enabled.Load() {
		c.v.Add(n)
		c.mark()
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

var (
	counters   sync.Map // string -> *Counter
	histograms sync.Map // string -> *Histogram
)

// getOrCreate returns the registry entry under name, storing fresh() on
// first use.
func getOrCreate[T any](m *sync.Map, name string, fresh func() *T) *T {
	if v, ok := m.Load(name); ok {
		return v.(*T)
	}
	v, _ := m.LoadOrStore(name, fresh())
	return v.(*T)
}

// GetCounter returns the named counter, registering it on first use.
// Resolve handles once, where the name's label values become known, and
// record through the pointer.
func GetCounter(name string) *Counter {
	return getOrCreate(&counters, name, func() *Counter { return &Counter{} })
}

// GetHistogram returns the named histogram, registering it on first use.
func GetHistogram(name string) *Histogram {
	return getOrCreate(&histograms, name, func() *Histogram { return &Histogram{} })
}

// MaxWorkerSlots bounds the per-worker chunk-claim vector. Worker indices
// come from the predict engine, which never exceeds GOMAXPROCS.
const MaxWorkerSlots = 256

// workerChunks[w] counts chunks dynamically claimed by worker slot w across
// all sharded sweeps, the engine's load-imbalance signal.
var workerChunks [MaxWorkerSlots]atomic.Int64

// AddWorkerChunks records n chunk claims for worker slot w while telemetry
// is on.
func AddWorkerChunks(w int, n int64) {
	if w >= 0 && w < MaxWorkerSlots && enabled.Load() {
		workerChunks[w].Add(n)
	}
}

// Reset zeroes and unlists every counter, gauge, histogram and rolling
// window in place, so handles callers hold stay valid and list again on
// their next record; it drops gauge callbacks, worker chunk claims and
// recorded spans. It does not change the enabled flag. Intended for tests
// and for separating phases of a long-lived process.
func Reset() {
	counters.Range(func(_, v any) bool { c := v.(*Counter); c.v.Store(0); c.on.Store(false); return true })
	histograms.Range(func(_, v any) bool { v.(*Histogram).reset(); return true })
	gauges.Range(func(_, v any) bool { g := v.(*Gauge); g.bits.Store(0); g.on.Store(false); return true })
	gaugeFuncs.Range(func(k, _ any) bool { gaugeFuncs.Delete(k); return true })
	rollings.Range(func(_, v any) bool { v.(*Rolling).reset(); return true })
	for i := range workerChunks {
		workerChunks[i].Store(0)
	}
	resetSpans()
}

// Dump is the JSON-serializable snapshot of all telemetry: the schema of
// the -metrics-out file and of the /metrics endpoint.
type Dump struct {
	Enabled bool `json:"enabled"`
	// Counters maps metric name to its current value.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps metric name to its current value; callback gauges
	// (SetGaugeFunc) are evaluated at snapshot time and merged in.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Histograms maps metric name to its distribution summary.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Rolling maps metric name to its sliding-window summary.
	Rolling map[string]RollingSnapshot `json:"rolling,omitempty"`
	// WorkerChunkClaims[w] is the number of engine chunks claimed by worker
	// slot w (trimmed at the last nonzero slot); skew across slots exposes
	// load imbalance in the parallel scoring engine.
	WorkerChunkClaims []int64 `json:"worker_chunk_claims,omitempty"`
	// Spans holds the root spans of the hierarchical timing tree.
	Spans []SpanSnapshot `json:"spans,omitempty"`
}

// Snapshot captures the current state of every listed counter, gauge,
// histogram and rolling window, every gauge callback, the worker
// chunk-claim vector, and the span tree.
func Snapshot() *Dump {
	d := &Dump{
		Enabled:    Enabled(),
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	counters.Range(func(k, v any) bool {
		if c := v.(*Counter); c.on.Load() {
			d.Counters[k.(string)] = c.Value()
		}
		return true
	})
	histograms.Range(func(k, v any) bool {
		if h := v.(*Histogram); h.on.Load() {
			d.Histograms[k.(string)] = h.Snapshot()
		}
		return true
	})
	gauges.Range(func(k, v any) bool {
		if g := v.(*Gauge); g.on.Load() {
			if d.Gauges == nil {
				d.Gauges = map[string]float64{}
			}
			d.Gauges[k.(string)] = g.Value()
		}
		return true
	})
	gaugeFuncs.Range(func(k, v any) bool {
		if d.Gauges == nil {
			d.Gauges = map[string]float64{}
		}
		d.Gauges[k.(string)] = v.(func() float64)()
		return true
	})
	rollings.Range(func(k, v any) bool {
		if r := v.(*Rolling); r.on.Load() {
			if d.Rolling == nil {
				d.Rolling = map[string]RollingSnapshot{}
			}
			d.Rolling[k.(string)] = r.Snapshot()
		}
		return true
	})
	last := -1
	for i := range workerChunks {
		if workerChunks[i].Load() != 0 {
			last = i
		}
	}
	if last >= 0 {
		d.WorkerChunkClaims = make([]int64, last+1)
		for i := range d.WorkerChunkClaims {
			d.WorkerChunkClaims[i] = workerChunks[i].Load()
		}
	}
	d.Spans = snapshotRoots()
	return d
}

// WriteJSON writes the current Dump to w as indented JSON.
func WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
