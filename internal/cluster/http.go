package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"linkpred/internal/obs"
	"linkpred/internal/serve"
)

// Handler returns the router's HTTP API — the same surface a single
// linkpredd exposes, so clients point at the router and see one big server:
//
//	GET  /predict?alg=CN&k=50[&timeout_ms=200]
//	               — scatter/gather merged top-k; adds partial:true +
//	               missing_ranges when shards are down or misaligned
//	POST /score    — forwarded to one shard (round-robin with failover)
//	POST /ingest   — replicated to every shard in serialized order
//	POST /flush    — snapshot publish on every shard
//	GET  /healthz  — aggregate shard health + epoch skew
//	GET  /metrics  — router telemetry (JSON, or ?format=prom)
//
// The five request endpoints go through the shard's own wrappers
// (serve.Instrument under cluster/http/, serve.PostOnly), so both tiers
// refuse a wrong method with the same 405 and report the same per-endpoint
// surface.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", serve.Instrument("cluster", "predict", r.handlePredict))
	mux.HandleFunc("/score", serve.Instrument("cluster", "score", serve.PostOnly(r.handleScore)))
	mux.HandleFunc("/ingest", serve.Instrument("cluster", "ingest", serve.PostOnly(r.handleIngest)))
	mux.HandleFunc("/flush", serve.Instrument("cluster", "flush", serve.PostOnly(r.handleFlush)))
	mux.HandleFunc("/healthz", serve.Instrument("cluster", "healthz", r.handleHealthz))
	mux.HandleFunc("/metrics", obs.Handler().ServeHTTP)
	return mux
}

// errStatus maps a gather error to its HTTP status: every shard down is an
// upstream outage (502), an exhausted budget a gateway timeout (504), and a
// shard's deterministic refusal passes through with its original status.
func errStatus(err error) int {
	var rej *ShardRejection
	switch {
	case errors.As(err, &rej):
		return rej.Status
	case errors.Is(err, ErrAllShardsDown):
		return http.StatusBadGateway
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// handlePredict parses the query with the worker's own parser, so both
// tiers accept and refuse the same requests with the same bodies. A valid
// shard/shards pair is ignored: the router always answers the whole sweep.
func (r *Router) handlePredict(w http.ResponseWriter, req *http.Request) {
	q, err := serve.ParsePredictQuery(req.URL.Query())
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	budget := r.cfg.Timeout
	if q.TimeoutMS > 0 {
		budget = time.Duration(q.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(req.Context(), budget)
	defer cancel()
	res, err := r.Predict(ctx, q.Alg, q.K)
	if err != nil {
		serve.WriteError(w, errStatus(err), err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, res)
}

func (r *Router) handleScore(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, serve.ScoreBodyCap))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "bad score request: "+err.Error())
		return
	}
	status, raw, err := r.Score(req.Context(), body)
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(raw)
}

func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	var in struct {
		Events []serve.Event `json:"events"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, serve.IngestBodyCap))
	if err := dec.Decode(&in); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "bad ingest request: "+err.Error())
		return
	}
	out, err := r.Ingest(req.Context(), in.Events)
	if err != nil {
		serve.WriteError(w, errStatus(err), err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

func (r *Router) handleFlush(w http.ResponseWriter, req *http.Request) {
	seq, err := r.Flush(req.Context())
	if err != nil {
		serve.WriteError(w, errStatus(err), err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]int64{"snapshot_seq": seq})
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	h := r.Health(req.Context())
	status := http.StatusOK
	if h.ShardsUp == 0 {
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, status, h)
}
