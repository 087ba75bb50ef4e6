package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"linkpred/internal/obs"
)

// Handler returns the server's HTTP API:
//
//	GET  /predict?alg=CN&k=50[&timeout_ms=200][&shard=i&shards=N]
//	               — top-k ranked candidate links; shard/shards restrict the
//	               sweep to one source shard for the cluster scatter path
//	POST /score    {"alg":"AA","pairs":[[u,v],...][,"timeout_ms":200]}
//	POST /ingest   {"events":[{"u":1,"v":2,"t":10},...]}
//	POST /flush    — publish a snapshot of everything ingested so far
//	GET  /healthz  — serving state
//	GET  /metrics  — telemetry: JSON dump by default (application/json),
//	                 Prometheus text exposition with ?format=prom
//	                 (text/plain; version=0.0.4)
//
// Every endpoint is instrumented when obs is enabled: per-endpoint request
// latency histograms plus one-minute rolling windows, in-flight gauges,
// and per-status response counters, all labeled {endpoint=...}.
//
// Error mapping: unknown algorithm or malformed input → 400, queue full →
// 429, request deadline → 504, aborted coalesced batch or closed server →
// 503.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", instrument("predict", s.handlePredict))
	mux.HandleFunc("/score", instrument("score", s.handleScore))
	mux.HandleFunc("/ingest", instrument("ingest", s.handleIngest))
	mux.HandleFunc("/flush", instrument("flush", s.handleFlush))
	mux.HandleFunc("/healthz", instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", instrument("metrics", obs.Handler().ServeHTTP))
	return mux
}

// Connection timeouts of the daemons' listeners. A client that never
// finishes its request headers (slow loris) or parks an idle keep-alive
// connection is cut off; there is deliberately no write timeout, because a
// legitimate latent /predict may run for seconds and the per-request
// timeout_ms already bounds it.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server linkpredd and linkpredr listen
// with: h on addr under the connection timeouts above.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// statusWriter records the response status for the per-endpoint counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps one endpoint with the serving-health surface:
// request latency (cumulative histogram + one-minute rolling window for
// scraper-free rates), an in-flight gauge, and per-status response
// counters. One atomic load when telemetry is disabled.
func instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !obs.Enabled() {
			h(w, r)
			return
		}
		inflight := obs.GetGauge(`serve/http/in_flight{endpoint="` + endpoint + `"}`)
		inflight.Add(1)
		defer inflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		lat := time.Since(start).Nanoseconds()
		obs.GetHistogram(`serve/http/latency_ns{endpoint="` + endpoint + `"}`).Observe(lat)
		obs.GetRolling(`serve/http/latency_ns{endpoint="`+endpoint+`"}`, time.Minute).Add(lat)
		obs.GetCounter(fmt.Sprintf(`serve/http/responses{endpoint=%q,code="%d"}`, endpoint, sw.code)).Inc()
	}
}

// WriteJSON writes v as the JSON body of a response with the given status.
// The router (internal/cluster) answers through the same two writers, so a
// client sees one envelope whichever tier it talks to.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the JSON error envelope {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

// PredictQuery is a parsed /predict query string.
type PredictQuery struct {
	Alg string
	K   int // default 50
	// TimeoutMS is the request's own budget; 0 means none was given.
	TimeoutMS int64
	// Shard of Shards selects one source shard's slice of the sweep (the
	// cluster scatter path, DESIGN.md §12); 0 of 1 is the whole sweep.
	Shard, Shards int
}

// ParsePredictQuery parses and validates the /predict parameters shared by
// the shard and the router. The error text is the body of the 400.
func ParsePredictQuery(q url.Values) (PredictQuery, error) {
	p := PredictQuery{Alg: q.Get("alg"), K: 50, Shards: 1}
	if p.Alg == "" {
		return p, errors.New("missing alg parameter")
	}
	if raw := q.Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			return p, fmt.Errorf("bad k %q", raw)
		}
		p.K = v
	}
	if raw := q.Get("timeout_ms"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			return p, fmt.Errorf("bad timeout_ms %q", raw)
		}
		p.TimeoutMS = v
	}
	if raw := q.Get("shards"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			return p, fmt.Errorf("bad shards %q", raw)
		}
		p.Shards = v
	}
	if raw := q.Get("shard"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 || v >= p.Shards {
			return p, fmt.Errorf("bad shard %q of %d", raw, p.Shards)
		}
		p.Shard = v
	}
	return p, nil
}

// Encode is the inverse of ParsePredictQuery: the query string a router
// sends a shard. K is always written, timeout_ms only when set, and the
// shard/shards pair whenever Shards is non-zero; Shards 0 omits the pair,
// which the parser reads back as its default 0 of 1.
func (p PredictQuery) Encode() string {
	s := "alg=" + url.QueryEscape(p.Alg) + "&k=" + strconv.Itoa(p.K)
	if p.TimeoutMS > 0 {
		s += "&timeout_ms=" + strconv.FormatInt(p.TimeoutMS, 10)
	}
	if p.Shards > 0 {
		s += "&shard=" + strconv.Itoa(p.Shard) + "&shards=" + strconv.Itoa(p.Shards)
	}
	return s
}

// errStatus maps a serving error to its HTTP status. Anything unlisted
// (an unknown algorithm, a bad k or shard) is the caller's fault: 400.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrBatchAborted), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDurability):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// reqCtx derives the request context, applying an optional timeout_ms.
func reqCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	if timeoutMS > 0 {
		return context.WithTimeout(r.Context(), time.Duration(timeoutMS)*time.Millisecond)
	}
	return r.Context(), func() {}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	q, err := ParsePredictQuery(r.URL.Query())
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := reqCtx(r, q.TimeoutMS)
	defer cancel()
	res, err := s.PredictShard(ctx, q.Alg, q.K, q.Shard, q.Shards)
	if err != nil {
		WriteError(w, errStatus(err), err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

type scoreRequest struct {
	Alg       string     `json:"alg"`
	Pairs     [][2]int64 `json:"pairs"`
	TimeoutMS int64      `json:"timeout_ms"`
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req scoreRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad score request: "+err.Error())
		return
	}
	if req.Alg == "" || len(req.Pairs) == 0 {
		WriteError(w, http.StatusBadRequest, "alg and pairs are required")
		return
	}
	ctx, cancel := reqCtx(r, req.TimeoutMS)
	defer cancel()
	res, err := s.Score(ctx, req.Alg, req.Pairs)
	if err != nil {
		WriteError(w, errStatus(err), err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

type ingestRequest struct {
	Events []Event `json:"events"`
}

// IngestResponse is the /ingest reply. A cluster router decodes it from
// every shard and embeds it in its own reply.
type IngestResponse struct {
	Accepted    int   `json:"accepted"`
	Rejected    int   `json:"rejected"`
	SnapshotSeq int64 `json:"snapshot_seq"`
	TraceEdges  int   `json:"trace_edges"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad ingest request: "+err.Error())
		return
	}
	accepted, rejected, err := s.Ingest(req.Events)
	if err != nil {
		WriteError(w, errStatus(err), err.Error())
		return
	}
	h := s.Health()
	WriteJSON(w, http.StatusOK, IngestResponse{
		Accepted:    accepted,
		Rejected:    rejected,
		SnapshotSeq: h.SnapshotSeq,
		TraceEdges:  h.TraceEdges,
	})
}

// FlushResponse is the /flush reply.
type FlushResponse struct {
	SnapshotSeq   int64 `json:"snapshot_seq"`
	SnapshotEdges int   `json:"snapshot_edges"`
	Nodes         int   `json:"nodes"`
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	snap := s.Flush()
	WriteJSON(w, http.StatusOK, FlushResponse{
		SnapshotSeq:   snap.Seq,
		SnapshotEdges: snap.Edges,
		Nodes:         snap.Graph.NumNodes(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Health())
}
