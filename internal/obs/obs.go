// Package obs is the pipeline's zero-dependency telemetry layer: atomic
// counters, lock-cheap log2-bucket histograms, hierarchical spans, and the
// export surfaces (JSON dump, expvar-style HTTP handler, opt-in pprof
// server, periodic progress logging) the cmd binaries wire up.
//
// Collection is off by default and guarded by a single package-level flag:
// every instrumentation hook in the hot paths reduces to one atomic load
// (or a nil-pointer check) when disabled, so the prediction engine pays no
// measurable cost unless a run opts in. Telemetry only observes — it never
// feeds back into scoring, ranking, or tie-breaking — so enabling it cannot
// perturb the engine's bit-identical deterministic output (proved by
// TestTelemetryPreservesDeterminism in internal/predict).
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates all collection. Off by default.
var enabled atomic.Bool

// Enable switches telemetry collection on or off. Instrumented code paths
// check Enabled once per operation and skip all recording when off.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether telemetry collection is on.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores all operations.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
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

// GetCounter returns the named counter, creating it on first use. Callers
// on hot paths should check Enabled before calling, both to skip the map
// lookup and to keep disabled runs metric-free.
func GetCounter(name string) *Counter {
	if v, ok := counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// LookupCounter returns the named counter without creating it.
func LookupCounter(name string) (*Counter, bool) {
	v, ok := counters.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*Counter), true
}

// GetHistogram returns the named histogram, creating it on first use.
func GetHistogram(name string) *Histogram {
	if v, ok := histograms.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := histograms.LoadOrStore(name, &Histogram{})
	return v.(*Histogram)
}

// LookupHistogram returns the named histogram without creating it.
func LookupHistogram(name string) (*Histogram, bool) {
	v, ok := histograms.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*Histogram), true
}

// MaxWorkerSlots bounds the per-worker chunk-claim vector. Worker indices
// come from the predict engine, which never exceeds GOMAXPROCS.
const MaxWorkerSlots = 256

// workerChunks[w] counts chunks dynamically claimed by worker slot w across
// all sharded sweeps, the engine's load-imbalance signal.
var workerChunks [MaxWorkerSlots]atomic.Int64

// AddWorkerChunks records n chunk claims for worker slot w.
func AddWorkerChunks(w int, n int64) {
	if w >= 0 && w < MaxWorkerSlots {
		workerChunks[w].Add(n)
	}
}

// Reset clears all counters, gauges (value and callback), histograms,
// rolling windows, worker chunk claims, and recorded spans. It does not
// change the enabled flag. Intended for tests and for separating phases of
// a long-lived process.
func Reset() {
	counters.Range(func(k, _ any) bool { counters.Delete(k); return true })
	histograms.Range(func(k, _ any) bool { histograms.Delete(k); return true })
	gauges.Range(func(k, _ any) bool { gauges.Delete(k); return true })
	gaugeFuncs.Range(func(k, _ any) bool { gaugeFuncs.Delete(k); return true })
	rollings.Range(func(k, _ any) bool { rollings.Delete(k); return true })
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

// Snapshot captures the current state of every counter, histogram, the
// worker chunk-claim vector, and the span tree.
func Snapshot() *Dump {
	d := &Dump{
		Enabled:    Enabled(),
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	counters.Range(func(k, v any) bool {
		d.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	histograms.Range(func(k, v any) bool {
		d.Histograms[k.(string)] = v.(*Histogram).Snapshot()
		return true
	})
	gauges.Range(func(k, v any) bool {
		if d.Gauges == nil {
			d.Gauges = map[string]float64{}
		}
		d.Gauges[k.(string)] = v.(*Gauge).Value()
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
		if d.Rolling == nil {
			d.Rolling = map[string]RollingSnapshot{}
		}
		d.Rolling[k.(string)] = v.(*Rolling).Snapshot()
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

// CounterNames returns the sorted names of all registered counters.
func CounterNames() []string {
	var names []string
	counters.Range(func(k, _ any) bool { names = append(names, k.(string)); return true })
	sort.Strings(names)
	return names
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
