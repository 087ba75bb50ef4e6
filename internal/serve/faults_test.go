package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
)

// The rows of DESIGN.md §9's degradation table that only show at the HTTP
// front: the status and body a client gets while the server sheds or
// aborts work.

// parkedServer is a one-worker server whose worker a "Block" predict parks;
// extra resolves further test algorithms ahead of the registry.
func parkedServer(t *testing.T, queueDepth int, extra map[string]predict.Algorithm) (*Server, *blockingAlg) {
	t.Helper()
	blocker := &blockingAlg{name: "Block", started: make(chan struct{}), release: make(chan struct{})}
	s := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: queueDepth,
		Resolve: func(name string) (predict.Algorithm, error) {
			if name == "Block" {
				return blocker, nil
			}
			if a, ok := extra[name]; ok {
				return a, nil
			}
			return predict.ByName(name)
		},
	})
	if _, _, err := s.Ingest([]Event{{U: 0, V: 1, T: 1}, {U: 1, V: 2, T: 2}}); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	return s, blocker
}

// waitQueue waits until n requests sit in s's queue.
func waitQueue(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d requests, want %d", len(s.queue), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// serveAsync runs req through h on its own goroutine and delivers the
// recorder once the handler returns.
func serveAsync(h http.Handler, req *http.Request) <-chan *httptest.ResponseRecorder {
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		done <- rec
	}()
	return done
}

// TestQueueFullHTTP429 pins the queue-full row at the HTTP front: with the
// only worker parked and the one queue slot taken, a /predict is answered
// at once with 429 and the ErrOverloaded envelope, and counted in
// serve/overload_rejected.
func TestQueueFullHTTP429(t *testing.T) {
	obs.Enable(true)
	obs.Reset()
	t.Cleanup(func() { obs.Enable(false) })
	s, blocker := parkedServer(t, 1, nil)
	h := s.Handler()
	parked := serveAsync(h, httptest.NewRequest("GET", "/predict?alg=Block&k=5", nil))
	<-blocker.started
	queued := serveAsync(h, httptest.NewRequest("GET", "/predict?alg=CN&k=5", nil))
	waitQueue(t, s, 1)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/predict?alg=CN&k=5", nil))
	if want := `{"error":"` + ErrOverloaded.Error() + `"}` + "\n"; rec.Code != 429 || rec.Body.String() != want {
		t.Errorf("queue full: %d %s, want 429 %s", rec.Code, rec.Body, want)
	}
	if got := obs.GetCounter("serve/overload_rejected").Value(); got != 1 {
		t.Errorf("serve/overload_rejected = %d, want 1", got)
	}
	close(blocker.release)
	for _, done := range []<-chan *httptest.ResponseRecorder{parked, queued} {
		if rec := <-done; rec.Code != 200 {
			t.Errorf("parked or queued request: %d %s, want 200", rec.Code, rec.Body)
		}
	}
}

// abortingAlg scores pairs until the sweep's context ends, then returns
// zeros: a shared sweep that only its leader's deadline can stop.
type abortingAlg struct{ started chan struct{} }

func (a *abortingAlg) Name() string { return "Abort" }
func (a *abortingAlg) Predict(g *graph.Graph, k int, opt predict.Options) []predict.Pair {
	return nil
}
func (a *abortingAlg) ScorePairs(g *graph.Graph, pairs []predict.Pair, opt predict.Options) []float64 {
	a.started <- struct{}{}
	<-opt.Ctx.Done()
	return make([]float64, len(pairs))
}

// TestBatchAbortHTTP503 pins the batch-abort row: two /score requests for
// one algorithm queue behind a parked worker and coalesce into one sweep
// led by the first. The leader's context ends mid-sweep (the test ends it,
// so the timing is the test's), which cancels the shared sweep: the leader
// gets its 504, and the follower, whose own context is alive, gets 503 with
// the ErrBatchAborted envelope — a retry, never a half-computed score.
func TestBatchAbortHTTP503(t *testing.T) {
	abort := &abortingAlg{started: make(chan struct{})}
	s, blocker := parkedServer(t, 4, map[string]predict.Algorithm{"Abort": abort})
	h := s.Handler()
	parked := serveAsync(h, httptest.NewRequest("GET", "/predict?alg=Block&k=5", nil))
	<-blocker.started

	const body = `{"alg":"Abort","pairs":[[0,2]]}`
	ctx, endLeader := context.WithCancel(context.Background())
	defer endLeader()
	leader := serveAsync(h, httptest.NewRequest("POST", "/score", strings.NewReader(body)).WithContext(ctx))
	waitQueue(t, s, 1)
	follower := serveAsync(h, httptest.NewRequest("POST", "/score", strings.NewReader(body)))
	waitQueue(t, s, 2)

	close(blocker.release)
	<-abort.started // the worker is inside the shared sweep
	endLeader()
	if rec := <-follower; rec.Code != 503 || rec.Body.String() != `{"error":"`+ErrBatchAborted.Error()+`"}`+"\n" {
		t.Errorf("follower: %d %s, want 503 with the ErrBatchAborted envelope", rec.Code, rec.Body)
	}
	if rec := <-leader; rec.Code != 504 {
		t.Errorf("leader: %d %s, want 504", rec.Code, rec.Body)
	}
	if rec := <-parked; rec.Code != 200 {
		t.Errorf("parked predict: %d %s, want 200", rec.Code, rec.Body)
	}
}
