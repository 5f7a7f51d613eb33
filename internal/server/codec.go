package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// The wire protocol: JSON over HTTP, canonically encoded. Requests are
// decoded strictly (unknown fields rejected), normalized (defaults applied),
// and re-marshaled into a canonical byte string whose hash keys the result
// cache — so {"n":6,"r":2}, {"r":2,"n":6}, and {"n":6} under default r all
// share one cache entry. Responses are structs with fixed field order, so
// encoding/json emits byte-identical bodies for identical states.

// maxBodyBytes bounds request bodies; a pattern or edge batch has no
// business being larger.
const maxBodyBytes = 1 << 20

// SummarizeRequest asks for a fresh summary of the current graph.
type SummarizeRequest struct {
	// R, K, N override the server defaults when > 0 (K only on the
	// summarize-k endpoint, where it must end up > 0).
	R int `json:"r,omitempty"`
	K int `json:"k,omitempty"`
	N int `json:"n,omitempty"`
	// Utility overrides the server's utility spec for this request.
	Utility string `json:"utility,omitempty"`
}

// ViewRequest answers a pattern query over the maintained summary as a
// materialized view.
type ViewRequest struct {
	// Pattern is the query in the pattern text format.
	Pattern string `json:"pattern"`
	// EmbedCap bounds embedding enumeration (0 = server default).
	EmbedCap int `json:"embed_cap,omitempty"`
}

// WorkloadRequest exports the maintained summary's patterns as annotated
// benchmark queries.
type WorkloadRequest struct {
	EmbedCap int `json:"embed_cap,omitempty"`
}

// EdgeChange is one edge of a write batch.
type EdgeChange struct {
	From  int64  `json:"from"`
	To    int64  `json:"to"`
	Label string `json:"label"`
}

// UpdateRequest is one write batch: edge insertions and deletions applied
// atomically under the write lock through the Inc-FGS maintainer.
type UpdateRequest struct {
	Insert []EdgeChange `json:"insert,omitempty"`
	Delete []EdgeChange `json:"delete,omitempty"`
}

// SummarizeResponse carries a freshly computed summary and the epoch it was
// computed at.
type SummarizeResponse struct {
	Epoch   uint64          `json:"epoch"`
	Summary json.RawMessage `json:"summary"`
}

// ViewResponse lists the covered nodes matching the query pattern.
type ViewResponse struct {
	Epoch uint64  `json:"epoch"`
	Count int     `json:"count"`
	Nodes []int64 `json:"nodes"`
}

// WorkloadQuery is one summary pattern annotated as a benchmark query.
type WorkloadQuery struct {
	Pattern        string  `json:"pattern"`
	Cardinality    int     `json:"cardinality"`
	CoveredMatches int     `json:"covered_matches"`
	Selectivity    float64 `json:"selectivity"`
}

// WorkloadResponse lists the maintained summary's patterns as queries.
type WorkloadResponse struct {
	Epoch   uint64          `json:"epoch"`
	Queries []WorkloadQuery `json:"queries"`
}

// SummaryStats is the compact view of a summary used in stats and update
// responses.
type SummaryStats struct {
	Patterns    int     `json:"patterns"`
	Covered     int     `json:"covered"`
	Corrections int     `json:"corrections"`
	CL          int     `json:"accumulated_loss"`
	Utility     float64 `json:"utility"`
}

// UpdateResponse reports a write batch's outcome. Applied counts the updates
// that changed the graph; the epoch advances iff Applied > 0. Error carries
// the first per-edge failure while the rest of the batch still applies.
type UpdateResponse struct {
	Epoch   uint64       `json:"epoch"`
	Applied int          `json:"applied"`
	Error   string       `json:"error,omitempty"`
	Summary SummaryStats `json:"summary"`
}

// CacheStats snapshots the result cache for /v1/stats.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// AdmissionStats snapshots admission control for /v1/stats.
type AdmissionStats struct {
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Expired  int64 `json:"expired"`
	Slots    int   `json:"slots"`
	Queue    int   `json:"queue"`
}

// MvccStats snapshots the MVCC serving state for /v1/stats. Replicas
// counts graph copies in circulation (current
// view + reader-pinned + free pool); Clones counts full-graph copies taken
// to grow the pool; WriterWaits counts publications that had to wait for a
// reader to release a replica. Publish latency is wall-clock and therefore
// lives on /metrics only.
type MvccStats struct {
	Mode        string `json:"mode"`
	MaxViews    int    `json:"max_views,omitempty"`
	Replicas    int    `json:"replicas,omitempty"`
	Publishes   int64  `json:"publishes,omitempty"`
	Clones      int64  `json:"clones,omitempty"`
	WriterWaits int64  `json:"writer_waits,omitempty"`
}

// StatsResponse is the engine snapshot served on /v1/stats. Every field is
// deterministic for a fixed request sequence; wall-clock derived series live
// on /metrics only.
type StatsResponse struct {
	Epoch     uint64         `json:"epoch"`
	Nodes     int            `json:"nodes"`
	Edges     int            `json:"edges"`
	Groups    int            `json:"groups"`
	Summary   SummaryStats   `json:"summary"`
	Cache     CacheStats     `json:"cache"`
	Admission AdmissionStats `json:"admission"`
	Mvcc      *MvccStats     `json:"mvcc,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// requestError marks an error as the client's fault (HTTP 400).
type requestError struct{ err error }

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }

// decodeStrict parses one JSON value from data into v, rejecting unknown
// fields and trailing content. Empty bodies decode as the zero request, so
// parameterless endpoints accept POSTs with no body.
func decodeStrict(data []byte, v any) error {
	if len(bytes.TrimSpace(data)) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// readBody drains a bounded request body.
func readBody(r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxBodyBytes {
		return nil, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)
	}
	return data, nil
}

// canonicalKey hashes the normalized request for the result cache. The
// input must already have defaults applied, so equivalent requests collapse
// to one key; json.Marshal on a struct emits fields in declaration order,
// making the encoding canonical.
func canonicalKey(endpoint string, req any) (string, error) {
	canon, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return endpoint + ":" + hex.EncodeToString(sum[:16]), nil
}

// epochKey scopes a canonical key to one graph epoch — the invalidation-by-
// construction trick: a write bumps the epoch, so every previously cached
// key stops matching and ages out of the LRU.
func epochKey(key string, epoch uint64) string {
	return strconv.FormatUint(epoch, 10) + "|" + key
}

// marshalBody renders a response canonically: compact JSON plus a trailing
// newline.
func marshalBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
