package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"linkpred/internal/serve"
)

type phase uint8

const (
	phaseWarmup phase = iota
	phaseOpen
	phaseClosed
	numPhases
)

func (p phase) String() string {
	return [...]string{"warmup", "open", "closed"}[p]
}

// maxLate is how far behind its due time an open-loop request may start
// before it is dropped and counted as failed: past that the generator, not
// the system, is what the latency would measure.
const maxLate = 2 * time.Second

// sample is one request as the generator saw it. Times are offsets from the
// run's epoch on the monotonic clock.
type sample struct {
	Op    *op
	Phase phase
	Lane  int
	// Due is when the request was owed (open loop) or, elsewhere, when it
	// was sent; latency is Done − Due in every phase.
	Due, Sent, Done time.Duration
	Status          int
	Body            []byte
	Err             error
	Dropped         bool
}

func (sm *sample) latencyMS() float64 { return ms(sm.Done - sm.Due) }

// ok reports whether the request got a 200, recording the failure in v if
// not: a refused, failed or dropped request counts against the run.
func (sm *sample) ok(v *verdict) bool {
	switch {
	case sm.Dropped:
		v.fail("%s %s: dropped, generator ran more than %v late", sm.Op.Class, sm.Phase, maxLate)
	case sm.Err != nil:
		v.fail("%s %s: %v", sm.Op.Class, sm.Phase, sm.Err)
	case sm.Status != http.StatusOK:
		v.fail("%s %s: status %d: %s", sm.Op.Class, sm.Phase, sm.Status, bytes.TrimSpace(sm.Body))
	default:
		return true
	}
	return false
}

// target is whatever answers requests: a daemon behind a socket, or in the
// traced run the same code in this process. Bodies and statuses have the
// same shape either way, so one oracle checks both.
type target interface {
	// do sends o with the request body requestBody rendered for it (nil for
	// a predict) and returns the answer.
	do(ctx context.Context, o *op, reqBody []byte) (status int, body []byte, err error)
}

// httpTarget talks to one base URL over one keep-alive connection.
type httpTarget struct {
	base   string
	client *http.Client
}

func newHTTPTarget(base string) *httpTarget {
	return &httpTarget{base: base, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

type scoreBody struct {
	Alg   string     `json:"alg"`
	Pairs [][2]int64 `json:"pairs"`
}

type ingestBody struct {
	Events []serve.Event `json:"events"`
}

// requestBody renders the JSON an op posts (nil for predict). Lanes render
// it before waiting for the due time, not while the request is already late.
func requestBody(o *op, s *schedule) []byte {
	var v any
	switch o.Class {
	case opScore:
		v = scoreBody{Alg: o.Alg, Pairs: s.PairLists[o.Pairs]}
	case opIngest:
		v = ingestBody{Events: s.Events[o.Lo:o.Hi]}
	default:
		return nil
	}
	b, _ := json.Marshal(v) // integers and strings always marshal
	return b
}

func (t *httpTarget) do(ctx context.Context, o *op, reqBody []byte) (int, []byte, error) {
	var req *http.Request
	var err error
	if o.Class == opPredict {
		u := fmt.Sprintf("%s/predict?alg=%s&k=%d", t.base, url.QueryEscape(o.Alg), o.K)
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, t.base+"/"+o.Class.String(), bytes.NewReader(reqBody))
	}
	if err != nil {
		return 0, nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// lane is one sequential sender.
type lane struct {
	id    int
	tg    target
	sched *schedule
	epoch time.Time
	out   []sample
}

func (l *lane) send(ctx context.Context, o *op, ph phase, due time.Time, reqBody []byte) {
	sm := sample{Op: o, Phase: ph, Lane: l.id}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	sm.Due, sm.Sent = due.Sub(l.epoch), sent.Sub(l.epoch)
	if sent.Sub(due) > maxLate {
		sm.Dropped, sm.Done = true, sm.Sent
	} else {
		sm.Status, sm.Body, sm.Err = l.tg.do(ctx, o, reqBody)
		sm.Done = time.Since(l.epoch)
	}
	l.out = append(l.out, sm)
}

// backToBack sends ops one after another, each as soon as the previous one
// answered.
func (l *lane) backToBack(ctx context.Context, ops []op, ph phase) {
	for i := range ops {
		if ctx.Err() != nil {
			return
		}
		l.send(ctx, &ops[i], ph, time.Time{}, requestBody(&ops[i], l.sched))
	}
}

// paced sends each op at start+Due, or at once if that has passed, never
// reordering: a stall delays every later request of the lane, and their
// latency, counted from the due time, says so.
func (l *lane) paced(ctx context.Context, ops []op, start time.Time) {
	for i := range ops {
		due := start.Add(ops[i].Due)
		reqBody := requestBody(&ops[i], l.sched)
		if !waitUntil(ctx, due) {
			return
		}
		l.send(ctx, &ops[i], phaseOpen, due, reqBody)
	}
}

// spinWindow is how long before a due time the lane stops sleeping and
// spins. An idle Go process sleeps in epoll_wait, whose timeout is in whole
// milliseconds: a timer alone fires about a millisecond late here, which is
// more than a /score takes. Spinning costs the generator 1.5 ms of one core
// per request, at most a tenth of a core at the highest rate in the suite.
const spinWindow = 1500 * time.Microsecond

// waitUntil returns at the due time, or false if ctx ended first.
func waitUntil(ctx context.Context, due time.Time) bool {
	if d := time.Until(due) - spinWindow; d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return false
		}
	}
	for time.Now().Before(due) {
	}
	return ctx.Err() == nil
}

// cycle repeats the programme until the deadline.
func (l *lane) cycle(ctx context.Context, prog []op, until time.Time) {
	for i := 0; len(prog) > 0 && time.Now().Before(until) && ctx.Err() == nil; i++ {
		o := &prog[i%len(prog)]
		l.send(ctx, o, phaseClosed, time.Time{}, requestBody(o, l.sched))
	}
}

// both runs fn on the two lanes at once and waits. A panic on a lane is
// handed back as an error so the caller's cleanup (reaping daemons) runs.
func both(lanes *[2]*lane, fn func(*lane)) error {
	var wg sync.WaitGroup
	errs := make([]error, len(lanes))
	for i, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("lane %d panicked: %v", i, r)
				}
			}()
			fn(l)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// traffic drives one workload's phases against the two lanes' targets and
// returns every sample in send order per lane.
type traffic struct {
	w     workload
	sched *schedule
	lanes [2]*lane
	// openStart/openEnd, when set, are called immediately before and after
	// the open loop: CPU accounting brackets exactly that phase.
	openStart, openEnd func()
}

func newTraffic(w workload, s *schedule, a, b target, epoch time.Time) *traffic {
	t := &traffic{w: w, sched: s}
	for i, tg := range []target{a, b} {
		t.lanes[i] = &lane{id: i, tg: tg, sched: s, epoch: epoch}
	}
	return t
}

// warmup sends the warm-up list on lane A, then one cheap request on lane B
// so that its connection exists before anything is timed.
func (t *traffic) warmup(ctx context.Context) {
	t.lanes[0].backToBack(ctx, t.sched.Warmup, phaseWarmup)
	for i := range t.sched.Warmup {
		if t.sched.Warmup[i].Class == opScore {
			t.lanes[1].backToBack(ctx, t.sched.Warmup[i:i+1], phaseWarmup)
			break
		}
	}
}

// measured runs the timed phases for the given number of seconds.
func (t *traffic) measured(ctx context.Context, seconds float64) error {
	_, closed := phases(seconds)
	openLoop := func() error {
		if t.openStart != nil {
			t.openStart()
		}
		start := time.Now()
		err := both(&t.lanes, func(l *lane) { l.paced(ctx, t.sched.Open[l.id], start) })
		if t.openEnd != nil {
			t.openEnd()
		}
		return err
	}
	closedLoop := func() error {
		until := time.Now().Add(closed)
		return both(&t.lanes, func(l *lane) { l.cycle(ctx, t.sched.Closed[l.id], until) })
	}
	first, second := openLoop, closedLoop
	if t.w.ClosedFirst {
		first, second = closedLoop, openLoop
	}
	if err := first(); err != nil {
		return err
	}
	return second()
}

// samples returns everything both lanes sent.
func (t *traffic) samples() []sample {
	return append(append([]sample(nil), t.lanes[0].out...), t.lanes[1].out...)
}
