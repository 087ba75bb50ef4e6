package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"linkpred/internal/cluster"
	"linkpred/internal/graph"
	"linkpred/internal/liveeval"
	"linkpred/internal/predict"
	"linkpred/internal/serve"
	"linkpred/internal/wal"
)

// system is a workload's topology built inside this process for the traced
// run: the same serve.New / cluster.New the daemons call, configured as
// their flag defaults configure them, with the benchmark's spans hooked in
// through the layers' public injection points only.
type system struct {
	w       workload
	rec     *recorder
	servers []*serve.Server
	cfgs    []serve.Config
	router  *cluster.Router
	front   http.Handler
	bootMS  []float64

	// ingest is the ingest request in flight, parent of the WAL file spans.
	// One lane carries all ingest and serve.Ingest holds the ingest lock
	// across its log writes, so at most one is ever open.
	ingest atomic.Pointer[open]
}

func cloneTrace(t *graph.Trace) *graph.Trace {
	return &graph.Trace{
		Name:    t.Name,
		Arrival: append([]int64(nil), t.Arrival...),
		Edges:   append([]graph.Edge(nil), t.Edges...),
	}
}

// tracedAlg wraps an algorithm so that every engine call is a span under
// the request that caused it (serve hands the request context to the engine
// as Options.Ctx).
type tracedAlg struct {
	predict.Algorithm
	rec *recorder
}

func (a tracedAlg) Predict(g *graph.Graph, k int, opt predict.Options) []predict.Pair {
	sp := a.rec.start(spanFrom(opt.Ctx), "predict.sweep", a.Name())
	defer sp.end()
	return a.Algorithm.Predict(g, k, opt)
}

func (a tracedAlg) ScorePairs(g *graph.Graph, pairs []predict.Pair, opt predict.Options) []float64 {
	sp := a.rec.start(spanFrom(opt.Ctx), "predict.score_pairs", a.Name())
	defer sp.endCount(int64(len(pairs)))
	return a.Algorithm.ScorePairs(g, pairs, opt)
}

// tracedFile wraps one WAL file: every write and sync is a span, and a
// checkpoint file's life from create to close is one more.
type tracedFile struct {
	wal.File
	sys     *system
	name    string
	whole   *open // checkpoint files only
	written int64
}

func (f *tracedFile) parent() *open {
	if f.whole != nil {
		return f.whole
	}
	return f.sys.ingest.Load()
}

func (f *tracedFile) Write(p []byte) (int, error) {
	sp := f.sys.rec.start(f.parent(), "wal.write", f.name)
	n, err := f.File.Write(p)
	f.written += int64(n)
	sp.endCount(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	sp := f.sys.rec.start(f.parent(), "wal.sync", f.name)
	defer sp.end()
	return f.File.Sync()
}

func (f *tracedFile) Close() error {
	err := f.File.Close()
	f.whole.endCount(f.written)
	return err
}

// serveConfig mirrors linkpredd's flag defaults (cmd/linkpredd/main.go).
func (s *system) serveConfig(warm *graph.Trace, walDir string) (serve.Config, error) {
	cfg := serve.Config{
		SnapshotEvery: snapshotEvery,
		Workers:       2,
		QueueDepth:    256,
		MaxBatch:      16,
		Warm:          !s.w.NoWarm,
		Trace:         cloneTrace(warm),
		Degrade:       serve.DegradeConfig{P95: 250 * time.Millisecond, RecoverAfter: 16},
		Eval:          liveeval.New(liveeval.Config{TopK: 128, Window: 1024}),
		Resolve: func(name string) (predict.Algorithm, error) {
			a, err := predict.ByName(name)
			if err != nil {
				return nil, err
			}
			return tracedAlg{Algorithm: a, rec: s.rec}, nil
		},
	}
	cfg.Opt.Seed = 1
	cfg.Opt.Workers = 1
	if s.w.Shards > 0 {
		cfg.Workers = 1
	}
	if walDir != "" {
		st, err := wal.NewDirStorage(walDir)
		if err != nil {
			return cfg, err
		}
		st.Wrap = func(name string, f wal.File) wal.File {
			tf := &tracedFile{File: f, sys: s, name: name}
			if !strings.HasSuffix(name, ".seg") {
				tf.whole = s.rec.start(nil, "wal.checkpoint_write", name)
			}
			return tf
		}
		cfg.WAL = st
		cfg.CheckpointEvery = 4096
	}
	return cfg, nil
}

// bootSystem builds the topology on the boot trace.
func bootSystem(w workload, warm *graph.Trace, rec *recorder, runDir string) (*system, error) {
	s := &system{w: w, rec: rec}
	n := max(w.Shards, 1)
	for i := 0; i < n; i++ {
		walDir := ""
		if w.WAL {
			walDir = filepath.Join(runDir, fmt.Sprintf("wal-inproc-%s-%d", w.Name, i))
		}
		cfg, err := s.serveConfig(warm, walDir)
		if err != nil {
			s.close()
			return nil, err
		}
		t0 := time.Now()
		srv, err := serve.New(cfg)
		if err != nil {
			s.close()
			return nil, err
		}
		s.bootMS = append(s.bootMS, ms(time.Since(t0)))
		s.servers, s.cfgs = append(s.servers, srv), append(s.cfgs, cfg)
	}
	if w.Shards == 0 {
		s.front = s.servers[0].Handler()
		return s, nil
	}
	tr := &shardTransport{sys: s, shards: map[string]http.Handler{}}
	var urls []string
	for i, srv := range s.servers {
		host := fmt.Sprintf("shard%d", i)
		tr.shards[host] = srv.Handler()
		urls = append(urls, "http://"+host)
	}
	s.router = cluster.New(cluster.Config{Shards: urls, Seed: 1, Client: &http.Client{Transport: tr}})
	s.front = s.router.Handler()
	return s, nil
}

func (s *system) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
}

// shardTransport is the router's network in the traced run: a round trip
// is a call into the shard's handler, wrapped in one span under the router
// request that issued it.
type shardTransport struct {
	sys    *system
	shards map[string]http.Handler
}

func (t *shardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.shards[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no shard %q", req.URL.Host)
	}
	sp := t.sys.rec.start(spanFrom(req.Context()), "cluster.shard_rt", req.URL.Path)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req.WithContext(withSpan(req.Context(), sp)))
	sp.endCount(int64(rr.Body.Len()))
	return rr.Result(), nil
}

// inprocTarget issues a lane's requests inside the process, alternating
// between the HTTP handler and the direct method call so that the HTTP
// layer's own time is the difference between the two.
type inprocTarget struct {
	sys  *system
	sent int
}

func (t *inprocTarget) do(ctx context.Context, o *op, body []byte) (int, []byte, error) {
	t.sent++
	if t.sent%2 == 1 {
		return t.viaHandler(ctx, o, body)
	}
	return t.direct(ctx, o, body)
}

func (t *inprocTarget) viaHandler(ctx context.Context, o *op, body []byte) (int, []byte, error) {
	method, target := http.MethodPost, "/"+o.Class.String()
	if o.Class == opPredict {
		method, target = http.MethodGet, fmt.Sprintf("/predict?alg=%s&k=%d", url.QueryEscape(o.Alg), o.K)
	}
	root := t.sys.rec.start(nil, "http."+o.Class.String(), o.Alg)
	if o.Class == opIngest {
		t.sys.ingest.Store(root)
		defer t.sys.ingest.Store(nil)
	}
	req := httptest.NewRequest(method, target, bytes.NewReader(body)).WithContext(withSpan(ctx, root))
	rr := httptest.NewRecorder()
	t.sys.front.ServeHTTP(rr, req)
	root.endCount(int64(rr.Body.Len()))
	return rr.Code, rr.Body.Bytes(), nil
}

// direct calls the front's exported method, bypassing HTTP. The response
// is rendered after the span closes, with the encoder the handlers use, so
// the oracle checks the same bytes on both paths.
func (t *inprocTarget) direct(ctx context.Context, o *op, body []byte) (int, []byte, error) {
	root := t.sys.rec.start(nil, "direct."+o.Class.String(), o.Alg)
	ctx = withSpan(ctx, root)
	var out any
	var err error
	status := http.StatusOK
	switch {
	case o.Class == opPredict && t.sys.router != nil:
		out, err = t.sys.router.Predict(ctx, o.Alg, o.K)
	case o.Class == opPredict:
		out, err = t.sys.servers[0].Predict(ctx, o.Alg, o.K)
	case o.Class == opScore && t.sys.router != nil:
		var raw []byte
		status, raw, err = t.sys.router.Score(ctx, body)
		root.end()
		return status, raw, err
	case o.Class == opScore:
		var sb scoreBody
		if err = json.Unmarshal(body, &sb); err == nil {
			out, err = t.sys.servers[0].Score(ctx, sb.Alg, sb.Pairs)
		}
	default:
		var ib ingestBody
		if err = json.Unmarshal(body, &ib); err != nil {
			break
		}
		t.sys.ingest.Store(root)
		if t.sys.router != nil {
			out, err = t.sys.router.Ingest(ctx, ib.Events)
		} else {
			var ack ingestAck
			srv := t.sys.servers[0]
			if ack.Accepted, ack.Rejected, err = srv.Ingest(ib.Events); err == nil {
				ack.TraceEdges = srv.Health().TraceEdges
				out = ack
			}
		}
		t.sys.ingest.Store(nil)
	}
	root.end()
	if err != nil {
		return statusOf(err), []byte(err.Error()), nil
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		return 0, nil, err
	}
	return status, buf.Bytes(), nil
}

// statusOf maps a direct call's error to the status the HTTP layer would
// have answered, for the rejected-request count.
func statusOf(err error) int {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, serve.ErrBatchAborted), errors.Is(err, serve.ErrClosed), errors.Is(err, cluster.ErrAllShardsDown):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
