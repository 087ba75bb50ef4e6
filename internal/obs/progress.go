package obs

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"
)

// ProgressLine returns a one-line summary of the run so far: elapsed time
// since start, Predict calls completed, pairs scored, engine chunks
// claimed, spans recorded, and current heap size.
func ProgressLine(start time.Time) string {
	var predicts, pairs int64
	histograms.Range(func(k, v any) bool {
		if strings.HasSuffix(k.(string), "/predict_ns") {
			predicts += v.(*Histogram).Count()
		}
		return true
	})
	counters.Range(func(k, v any) bool {
		if strings.HasSuffix(k.(string), "/pairs_scored") {
			pairs += v.(*Counter).Value()
		}
		return true
	})
	var chunks int64
	if c, ok := LookupCounter("engine/chunks_claimed"); ok {
		chunks = c.Value()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return fmt.Sprintf("obs: t=%s predicts=%d pairs_scored=%d chunks_claimed=%d spans=%d heap=%dMB",
		time.Since(start).Round(time.Second), predicts, pairs, chunks,
		SpansStarted(), m.HeapAlloc>>20)
}

// every runs f on its own goroutine each interval. The returned stop ends
// the loop and returns once the goroutine has exited, so f never runs after
// it; stop is idempotent.
func every(interval time.Duration, f func()) (stop func()) {
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				f()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// LogProgress starts a goroutine writing ProgressLine to w every interval
// until the returned stop function is called. Stop is idempotent.
func LogProgress(interval time.Duration, w io.Writer) (stop func()) {
	start := time.Now()
	return every(interval, func() { fmt.Fprintln(w, ProgressLine(start)) })
}

// Boot wires the opt-in telemetry surfaces for a cmd binary in one call:
// enables collection when any surface is requested (or force is set),
// starts the debug HTTP server when debugAddr is nonempty, and starts
// periodic progress logging when progress > 0. The returned stop function
// halts progress logging; it is never nil.
func Boot(force bool, debugAddr string, progress time.Duration, logw io.Writer) (stop func(), err error) {
	stop = func() {}
	if !force && debugAddr == "" && progress <= 0 {
		return stop, nil
	}
	Enable(true)
	if debugAddr != "" {
		srv, err := ServeDebug(debugAddr)
		if err != nil {
			return stop, err
		}
		fmt.Fprintf(logw, "obs: debug server on http://%s (/metrics, /debug/pprof)\n", srv.Addr)
	}
	if progress > 0 {
		stop = LogProgress(progress, logw)
	}
	return stop, nil
}
