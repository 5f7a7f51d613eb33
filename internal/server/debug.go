package server

// Live introspection endpoints (DESIGN.md §13). Everything under /debug/fgs
// is read-only and answers from the engine's current state: the MVCC
// publication graph, the result cache, the fairness position of the
// published summary, and the flight recorder. These views are for operators,
// not clients — their shapes may change between releases and they are
// deliberately excluded from the determinism contract (pin counts and cache
// occupancy depend on concurrent traffic).

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"

	"github.com/cwru-db/fgs/internal/obs"
)

// debugCacheMaxEntries caps the /debug/fgs/cache listing so a large cache
// cannot turn the endpoint into a multi-megabyte response.
const debugCacheMaxEntries = 128

// ViewsDebug is the /debug/fgs/views response: the MVCC publication state —
// which epochs are alive, who pins them, and how much replay log is retained.
type ViewsDebug struct {
	Mode        string      `json:"mode"`
	Epoch       uint64      `json:"epoch"`
	MaxViews    int         `json:"max_views"`
	Replicas    int         `json:"replicas"`
	Current     ViewDebug   `json:"current"`
	Retired     []ViewDebug `json:"retired"`
	FreeEpochs  []uint64    `json:"free_epochs"`
	LogLen      int         `json:"log_len"`
	LogBase     uint64      `json:"log_base"`
	Publishes   int64       `json:"publishes"`
	WriterWaits int64       `json:"writer_waits"`
}

// ViewDebug is one epoch view with its live reader count.
type ViewDebug struct {
	Epoch uint64 `json:"epoch"`
	Pins  int    `json:"pins"`
}

// CacheDebug is the /debug/fgs/cache response.
type CacheDebug struct {
	Stats     CacheStats        `json:"stats"`
	Entries   []CacheEntryDebug `json:"entries,omitempty"`
	Truncated bool              `json:"truncated,omitempty"`
}

// CacheEntryDebug is one cache entry: its epoch-prefixed key and body size.
type CacheEntryDebug struct {
	Key   string `json:"key"`
	Bytes int    `json:"bytes"`
}

// FairnessResponse is the /debug/fgs/fairness response: per-group coverage
// of the currently published summary against the configured bounds — the
// live answer to "is the summary fair right now, and for whom is it not".
type FairnessResponse struct {
	Epoch        uint64          `json:"epoch"`
	CoveredTotal int             `json:"covered_total"`
	Satisfied    bool            `json:"satisfied"`
	Groups       []FairnessGroup `json:"groups"`
}

// FairnessGroup is one group's coverage position: covered ∈ [lower, upper]
// means satisfied; coverage is covered/size for dashboards.
type FairnessGroup struct {
	Name      string  `json:"name"`
	Size      int     `json:"size"`
	Lower     int     `json:"lower"`
	Upper     int     `json:"upper"`
	Covered   int     `json:"covered"`
	Satisfied bool    `json:"satisfied"`
	Coverage  float64 `json:"coverage"`
}

func (s *Server) handleDebugViews(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.views.debug())
}

func (s *Server) handleDebugCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.debug(debugCacheMaxEntries))
}

// handleDebugFairness reports the published summary's per-group coverage.
// It pins a read context like any compute — an O(1) refcount bump — so the
// (epoch, summary) pair is consistent, but bypasses admission: fairness
// introspection must answer while the compute slots are saturated.
func (s *Server) handleDebugFairness(w http.ResponseWriter, r *http.Request) {
	rt := obs.ReqTraceFrom(r.Context())
	rc := s.acquireRead(rt)
	counts := s.groups.Counts(rc.summary.Covered)
	resp := FairnessResponse{
		Epoch:        rc.epoch,
		CoveredTotal: len(rc.summary.Covered),
		Satisfied:    s.groups.SatisfiesBounds(counts),
		Groups:       make([]FairnessGroup, 0, s.groups.Len()),
	}
	rc.release()
	for i := 0; i < s.groups.Len(); i++ {
		grp := s.groups.At(i)
		size := len(grp.Members)
		cov := 0.0
		if size > 0 {
			cov = float64(counts[i]) / float64(size)
		}
		resp.Groups = append(resp.Groups, FairnessGroup{
			Name:      grp.Name,
			Size:      size,
			Lower:     grp.Lower,
			Upper:     grp.Upper,
			Covered:   counts[i],
			Satisfied: counts[i] >= grp.Lower && counts[i] <= grp.Upper,
			Coverage:  cov,
		})
	}
	rt.SetEpoch(resp.Epoch)
	setEpochHeader(w, resp.Epoch)
	writeJSON(w, http.StatusOK, resp)
}

// handleDebugFlight renders the flight recorder as a text table, newest
// last. Browsing it does not record into it (see finishTrace), so the
// history under inspection is not overwritten by the inspection itself.
func (s *Server) handleDebugFlight(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("flight recorder disabled (tracing off or flight-events < 0)"))
		return
	}
	evs := s.flight.Snapshot()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "fgs flight recorder: events=%d recorded=%d dropped=%d cap=%d\n",
		len(evs), s.flight.Recorded(), s.flight.Dropped(), s.flight.Cap())
	if err := obs.WriteFlightText(&buf, evs); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes()) //lint:allow errdrop a failed response write means the client is gone; there is no recovery and the status is already committed
}
