package server

// The request-tracing shell (DESIGN.md §13). Every route is wrapped in
// instrument, which (with tracing enabled) gives the request a trace ID —
// propagated from an incoming W3C `traceparent` header or minted — and
// threads a *obs.ReqTrace through the request context. Handlers time their
// pipeline stages against it; when the request completes, the shell feeds
// the per-stage histograms, the flight recorder, the slow-request log, and
// the automatic dump triggers. The trace never influences the response
// body: determinism tests pin that tracing on/off is byte-identical.

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/cwru-db/fgs/internal/obs"
)

// flightDumpCooldown rate-limits automatic dumps: a 5xx storm writes one
// dump per window, not one per failure.
const flightDumpCooldown = 10 * time.Second

// statusWriter records the status code for the latency/error series and
// injects the Server-Timing stage breakdown just before headers commit —
// the last moment every stage that can still influence them has ended.
type statusWriter struct {
	http.ResponseWriter
	status int
	rt     *obs.ReqTrace
}

func (w *statusWriter) WriteHeader(code int) {
	if st := w.rt.ServerTiming(); st != "" {
		w.Header().Set("Server-Timing", st)
	}
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the observability shell: the request
// trace (ID propagation, stage timings, flight recorder), the per-endpoint
// latency histogram, and a recover barrier that turns an escaped panic into
// a 500 so one poisoned request cannot take the process down.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var rt *obs.ReqTrace
		if s.tgen != nil {
			tid, parent, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
			if !ok {
				tid, parent = s.tgen.Next(), obs.SpanID{}
			}
			rt = obs.NewReqTrace(s.clock, tid, parent)
			rt.SetEndpoint(endpoint)
			w.Header().Set("X-Fgs-Trace", tid.String())
			r = r.WithContext(obs.WithReqTrace(r.Context(), rt))
		}
		start := s.clock.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK, rt: rt}
		defer func() {
			if rec := recover(); rec != nil {
				sw.status = http.StatusInternalServerError
				writeError(sw, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
			}
			total := s.clock.Now().Sub(start)
			s.http.Observe(endpoint, total, sw.status >= 500)
			s.finishTrace(rt, endpoint, sw.status, total)
		}()
		h(sw, r)
	}
}

// finishTrace fans a completed request's trace out to its sinks: stage
// histograms (with trace-ID exemplars), the flight recorder, the
// slow-request log, and the automatic dump triggers (5xx, slow). Browsing
// the flight recorder is excluded from the recorder so inspecting it does
// not overwrite the history being inspected.
func (s *Server) finishTrace(rt *obs.ReqTrace, endpoint string, status int, total time.Duration) {
	if rt == nil {
		return
	}
	s.stages.ObserveTrace(rt)
	if endpoint != "debug-flightrecorder" {
		s.flight.Record(rt.Event(status, total))
	}
	slow := s.cfg.SlowRequest > 0 && total >= s.cfg.SlowRequest
	if status >= 500 {
		s.log.Error("request failed",
			"endpoint", endpoint, "status", status,
			"duration", total, "trace", rt.IDString())
		s.autoDumpFlight("5xx", rt.IDString())
		return
	}
	if slow {
		s.log.Warn("slow request",
			"endpoint", endpoint, "status", status,
			"duration", total, "threshold", s.cfg.SlowRequest,
			"stages", rt.ServerTiming(), "trace", rt.IDString())
		s.autoDumpFlight("slow", rt.IDString())
	}
}

// autoDumpFlight writes the flight recorder to the configured dump writer,
// at most once per cooldown window.
func (s *Server) autoDumpFlight(reason, trace string) {
	if s.flight == nil || s.cfg.FlightDump == nil {
		return
	}
	s.dumpMu.Lock()
	now := s.clock.Now()
	if !s.lastDump.IsZero() && now.Sub(s.lastDump) < flightDumpCooldown {
		s.dumpMu.Unlock()
		return
	}
	s.lastDump = now
	s.dumpMu.Unlock()
	if err := s.writeFlightDump(s.cfg.FlightDump, reason, trace); err != nil {
		s.log.Error("flight dump failed", "reason", reason, "error", err)
	}
}

// DumpFlightRecorder writes the current ring to w as a text table —
// the hook for SIGQUIT and drain dumps (cmd/fgsd). Unlike the automatic
// 5xx/slow dumps it is not rate-limited. Returns an error when tracing or
// the recorder is disabled.
func (s *Server) DumpFlightRecorder(w io.Writer, reason string) error {
	if s.flight == nil {
		return fmt.Errorf("server: flight recorder disabled")
	}
	return s.writeFlightDump(w, reason, "")
}

func (s *Server) writeFlightDump(w io.Writer, reason, trace string) error {
	evs := s.flight.Snapshot()
	s.log.Info("flight recorder dump", "reason", reason, "events", len(evs), "trace", trace)
	if _, err := fmt.Fprintf(w, "fgs flight recorder: reason=%s trace=%s events=%d recorded=%d\n",
		reason, trace, len(evs), s.flight.Recorded()); err != nil {
		return err
	}
	return obs.WriteFlightText(w, evs)
}
