package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req, the ID of the request's root span; Parent is the span that
// caused this one (0 for a root). Times are nanoseconds from the recorder's
// epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"` // algorithm, endpoint or file, by Name
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"` // bytes written, pairs scored
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. It is recorded from
// the benchmark's own wrappers around each layer's public functions; the
// program under test is not instrumented.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.on.Store(true)
	return r
}

// open is a span that has started and not ended.
type open struct {
	r *recorder
	s span
}

// start opens a span under parent (nil for a root). With the recorder off
// it returns nil, and every method of a nil *open is a no-op.
func (r *recorder) start(parent *open, name, attr string) *open {
	if !r.on.Load() {
		return nil
	}
	o := &open{r: r, s: span{ID: r.next.Add(1), Name: name, Attr: attr}}
	o.s.Req = o.s.ID
	if parent != nil {
		o.s.Parent, o.s.Req = parent.s.ID, parent.s.Req
	}
	o.s.Start = int64(time.Since(r.epoch))
	return o
}

func (o *open) end() { o.endCount(0) }

func (o *open) endCount(n int64) {
	if o == nil {
		return
	}
	o.s.End, o.s.Count = int64(time.Since(o.r.epoch)), n
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// reset drops what was recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type spanKey struct{}

// withSpan hands a span down a call chain that carries a context: the
// request context reaches the engine as predict.Options.Ctx and the shards
// as the router's outgoing request context.
func withSpan(ctx context.Context, o *open) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, o)
}

func spanFrom(ctx context.Context) *open {
	if ctx == nil {
		return nil
	}
	o, _ := ctx.Value(spanKey{}).(*open)
	return o
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its direct children cover. Children are clipped to the parent's interval
// and overlapping children are counted once, so a parent's self time plus
// the union of its children is its duration by construction.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}
