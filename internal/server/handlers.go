package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/cwru-db/fgs/internal/obs"
)

// retryAfterSeconds is the backpressure hint on 503 responses: the queue
// drains at compute speed, so "soon" is the honest answer; clients with
// jittered retries spread the next wave.
const retryAfterSeconds = "1"

// routes mounts the HTTP surface. Method-qualified patterns (Go 1.22
// ServeMux) give non-matching methods 405 for free. The /debug/fgs tree is
// the live introspection surface (DESIGN.md §13): read-only views of the
// MVCC/cache/fairness/flight-recorder state for operators.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/summarize", s.instrument("summarize", s.handleSummarize(false)))
	mux.HandleFunc("POST /v1/summarize-k", s.instrument("summarize-k", s.handleSummarize(true)))
	mux.HandleFunc("POST /v1/view", s.instrument("view", s.handleView))
	mux.HandleFunc("POST /v1/workload", s.instrument("workload", s.handleWorkload))
	mux.HandleFunc("POST /v1/update", s.instrument("update", s.handleUpdate))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/fgs/views", s.instrument("debug-views", s.handleDebugViews))
	mux.HandleFunc("GET /debug/fgs/cache", s.instrument("debug-cache", s.handleDebugCache))
	mux.HandleFunc("GET /debug/fgs/fairness", s.instrument("debug-fairness", s.handleDebugFairness))
	mux.HandleFunc("GET /debug/fgs/flightrecorder", s.instrument("debug-flightrecorder", s.handleDebugFlight))
	s.mux = mux
}

// setEpochHeader exposes the epoch a response was computed at as a header,
// so cache/epoch behavior is debuggable from access logs alone (the epoch
// is also in the body, but bodies do not reach logs).
func setEpochHeader(w http.ResponseWriter, epoch uint64) {
	w.Header().Set("X-Fgs-Epoch", strconv.FormatUint(epoch, 10))
}

// serveCompute is the shared request pipeline for the compute endpoints:
// drain check → cache probe → admission (with deadline) → compute → cache
// fill → respond, each stage timed against the request trace. cacheReq,
// when non-nil, is the normalized request whose canonical encoding keys the
// cache; pass nil for uncacheable endpoints (writes).
func (s *Server) serveCompute(w http.ResponseWriter, r *http.Request, endpoint string, cacheReq any, fn func(rt *obs.ReqTrace) (resp any, epoch uint64, err error)) {
	rt := obs.ReqTraceFrom(r.Context())
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	var key string
	if cacheReq != nil && s.cache != nil {
		csp := rt.Start(obs.StageCache)
		k, err := canonicalKey(endpoint, cacheReq)
		if err != nil {
			csp.End()
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		key = k
		probeEpoch := s.epoch.Load()
		body, ok := s.cache.get(epochKey(key, probeEpoch))
		csp.End()
		if ok {
			rt.SetCacheHit(true)
			rt.SetEpoch(probeEpoch)
			w.Header().Set("X-Fgs-Cache", "hit")
			setEpochHeader(w, probeEpoch)
			writeRaw(w, http.StatusOK, body)
			return
		}
	}

	ctx := r.Context()
	if s.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		defer cancel()
	}
	asp := rt.Start(obs.StageAdmission)
	release, err := s.adm.acquire(ctx)
	asp.End()
	switch {
	case errors.Is(err, errSaturated):
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, errors.New("server: deadline expired while queued"))
		return
	case err != nil: // client disconnected while queued
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	defer release()
	if s.testHook != nil {
		s.testHook(endpoint)
	}

	csp := rt.Start(obs.StageCompute)
	resp, epoch, err := fn(rt)
	csp.End()
	if err != nil {
		var reqErr *requestError
		if errors.As(err, &reqErr) {
			writeError(w, http.StatusBadRequest, err)
		} else {
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	rt.SetEpoch(epoch)
	esp := rt.Start(obs.StageEncode)
	body, err := marshalBody(resp)
	esp.End()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if key != "" {
		// Stored under the epoch captured inside the compute's lock scope, so
		// a write racing this response can only leave the entry under an old
		// epoch — unreachable, never wrong.
		s.cache.put(epochKey(key, epoch), body)
	}
	setEpochHeader(w, epoch)
	writeRaw(w, http.StatusOK, body)
}

func (s *Server) handleSummarize(k bool) http.HandlerFunc {
	endpoint := "summarize"
	if k {
		endpoint = "summarize-k"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		req := &SummarizeRequest{}
		if !s.decodeRequest(w, r, req) {
			return
		}
		if err := s.normalizeSummarize(req, k); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		s.serveCompute(w, r, endpoint, req, func(rt *obs.ReqTrace) (any, uint64, error) {
			return s.computeSummarize(rt, req, k)
		})
	}
}

// normalizeSummarize applies server defaults and validates, so the
// canonical cache key collapses equivalent requests.
func (s *Server) normalizeSummarize(req *SummarizeRequest, k bool) error {
	if req.R < 0 || req.N < 0 || req.K < 0 {
		return errors.New("r, k, and n must be non-negative")
	}
	if req.R == 0 {
		req.R = s.cfg.R
	}
	if req.N == 0 {
		req.N = s.cfg.N
	}
	if k {
		if req.K == 0 {
			req.K = s.cfg.K
		}
		if req.K <= 0 {
			return errors.New("summarize-k needs k > 0 (in the request or the server config)")
		}
	} else {
		req.K = 0
	}
	if req.Utility == "" {
		req.Utility = s.cfg.Utility
	}
	return nil
}

func (s *Server) handleView(w http.ResponseWriter, r *http.Request) {
	req := &ViewRequest{}
	if !s.decodeRequest(w, r, req) {
		return
	}
	if req.Pattern == "" {
		writeError(w, http.StatusBadRequest, errors.New("view needs a pattern"))
		return
	}
	if req.EmbedCap == 0 {
		req.EmbedCap = s.cfg.EmbedCap
	}
	s.serveCompute(w, r, "view", req, func(rt *obs.ReqTrace) (any, uint64, error) {
		return s.computeView(rt, req)
	})
}

func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	req := &WorkloadRequest{}
	if !s.decodeRequest(w, r, req) {
		return
	}
	if req.EmbedCap == 0 {
		req.EmbedCap = s.cfg.EmbedCap
	}
	s.serveCompute(w, r, "workload", req, func(rt *obs.ReqTrace) (any, uint64, error) {
		return s.computeWorkload(rt, req)
	})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	req := &UpdateRequest{}
	if !s.decodeRequest(w, r, req) {
		return
	}
	if len(req.Insert)+len(req.Delete) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("update needs at least one insert or delete"))
		return
	}
	s.serveCompute(w, r, "update", nil, func(rt *obs.ReqTrace) (any, uint64, error) {
		resp, err := s.computeUpdate(rt, req)
		if err != nil {
			return nil, 0, err
		}
		return resp, resp.Epoch, nil
	})
}

// handleStats serves the engine snapshot. It bypasses admission — it only
// reads counters and sizes, and must stay responsive when the slots are
// saturated (that is when operators look at it).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	rt := obs.ReqTraceFrom(r.Context())
	resp, epoch, err := s.computeStats(rt)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	rt.SetEpoch(epoch)
	setEpochHeader(w, epoch)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusServiceUnavailable, healthResponse{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok"})
}

type healthResponse struct {
	Status string `json:"status"`
}

// handleMetrics renders the Prometheus exposition of the registry: the
// engine counters (cache, admission, per-endpoint latency, request stages).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := obs.WritePrometheus(w, s.reg.Gather()); err != nil {
		// Headers are gone; all we can do is log-level reporting via the
		// error counter (instrument sees 200 — the body is already partial).
		_ = err
	}
}

func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	if err := decodeStrict(body, v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) //lint:allow errdrop a failed response write means the client is gone; there is no recovery and the status is already committed
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalBody(v)
	if err != nil {
		body = []byte(`{"error":"encoding failure"}` + "\n")
		status = http.StatusInternalServerError
	}
	writeRaw(w, status, body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
