package obs

// Request-scoped tracing (DESIGN.md §13): every request through a serving
// layer gets a W3C-compatible trace ID (propagated from an incoming
// `traceparent` header or generated), a fixed set of pipeline stage timings
// (admission-wait, cache-lookup, view-pin, compute, encode), and an
// annotation record (endpoint, epoch, cache hit). The per-request state is a
// single *ReqTrace carried in the request context; when the request
// completes the trace feeds three sinks:
//
//   - the per-stage latency histograms (StageStats), with the trace ID
//     attached to the hit bucket as an exemplar so a slow outlier in the
//     Prometheus export can be chased back to one concrete request;
//   - the flight recorder (flightrec.go), as one fixed-size event;
//   - the response headers: X-Fgs-Trace (the trace ID) and Server-Timing
//     (the stage breakdown, readable by browsers and load drivers).
//
// Like the rest of the package, everything is nil-safe and reporting-only:
// a nil *ReqTrace yields inert spans, and nothing here feeds request
// handling decisions — the determinism tests prove response bytes are
// identical with tracing on and off.

import (
	"context"
	"encoding/hex"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Stage indexes one segment of the request pipeline. The set is fixed so
// stage timings live in flat arrays — no per-request maps, and flight
// recorder events stay allocation-free.
type Stage uint8

// Request pipeline stages, in pipeline order.
const (
	// StageCache is the result-cache probe (key hashing + lookup).
	StageCache Stage = iota
	// StageAdmission is the wait for a worker slot (queue time included).
	StageAdmission
	// StagePin is acquiring the read context: pinning the MVCC view.
	StagePin
	// StageCompute is the algorithm run (select/mine/summarize or the
	// maintainer's write path).
	StageCompute
	// StageEncode is canonical response encoding.
	StageEncode
	// NumStages bounds the stage arrays.
	NumStages
)

var stageNames = [NumStages]string{"cache", "admission", "pin", "compute", "encode"}

// String returns the stage's label ("cache", "admission", ...).
func (st Stage) String() string {
	if st < NumStages {
		return stageNames[st]
	}
	return "unknown"
}

// TraceID is a 16-byte W3C trace-context trace ID. The zero value is
// invalid per the spec and doubles as "no trace".
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID is an 8-byte W3C parent/span ID.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceparent parses a W3C trace-context `traceparent` header:
// version "00", "-", 32 hex trace-id, "-", 16 hex parent-id, "-", 2 hex
// flags. It accepts future versions (higher version octets with trailing
// fields) per the spec's forward-compatibility rule, and rejects the
// all-zero trace and parent IDs.
func ParseTraceparent(h string) (tid TraceID, parent SpanID, sampled bool, ok bool) {
	h = strings.TrimSpace(h)
	// version-format: 2 hex "-" 32 hex "-" 16 hex "-" 2 hex [-...]
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	ver, err := hex.DecodeString(h[0:2])
	if err != nil || ver[0] == 0xff {
		return TraceID{}, SpanID{}, false, false
	}
	if ver[0] == 0 && len(h) != 55 {
		return TraceID{}, SpanID{}, false, false
	}
	if len(h) > 55 && h[55] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	if n, err := hex.Decode(tid[:], []byte(h[3:35])); err != nil || n != 16 {
		return TraceID{}, SpanID{}, false, false
	}
	if n, err := hex.Decode(parent[:], []byte(h[36:52])); err != nil || n != 8 {
		return TraceID{}, SpanID{}, false, false
	}
	flags, err := hex.DecodeString(h[53:55])
	if err != nil || tid.IsZero() || parent.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	return tid, parent, flags[0]&1 == 1, true
}

// FormatTraceparent renders a version-00 traceparent header.
func FormatTraceparent(tid TraceID, span SpanID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + tid.String() + "-" + span.String() + "-" + flags
}

// TraceIDGen mints process-unique trace IDs from boot entropy plus an
// atomic counter. IDs are unique per process and across restarts (the seed
// mixes the boot instant) without consuming randomness on the request path;
// they make no cryptographic claims.
type TraceIDGen struct {
	seed uint64
	ctr  atomic.Uint64
}

// NewTraceIDGen returns a generator; seed with something boot-unique (the
// boot time in nanoseconds is the conventional choice).
func NewTraceIDGen(seed int64) *TraceIDGen {
	return &TraceIDGen{seed: splitmix64(uint64(seed) ^ 0x9e3779b97f4a7c15)}
}

// Next returns a fresh non-zero trace ID.
func (g *TraceIDGen) Next() TraceID {
	n := g.ctr.Add(1)
	hi := splitmix64(g.seed ^ n)
	lo := splitmix64(hi ^ n<<1 ^ 0xbf58476d1ce4e5b9)
	var id TraceID
	for i := 0; i < 8; i++ {
		id[i] = byte(hi >> (56 - 8*i))
		id[8+i] = byte(lo >> (56 - 8*i))
	}
	if id.IsZero() {
		id[15] = 1
	}
	return id
}

// splitmix64 is the SplitMix64 finalizer: a fast, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ReqTrace is one request's trace: identity, stage timings, and the
// annotations the flight recorder event is built from. It is owned by the
// request's handler goroutine — methods are not safe for concurrent use —
// and every method is nil-safe, so disabled tracing costs a nil check.
type ReqTrace struct {
	id      TraceID
	parent  SpanID
	clock   Clock
	start   time.Time
	stages  [NumStages]time.Duration
	touched [NumStages]bool

	endpoint string
	epoch    uint64
	cacheHit bool
}

// NewReqTrace opens a request trace at clock.Now() under the given identity
// (parent may be zero when the request arrived without a traceparent).
func NewReqTrace(clock Clock, id TraceID, parent SpanID) *ReqTrace {
	if clock == nil {
		clock = System()
	}
	return &ReqTrace{id: id, parent: parent, clock: clock, start: clock.Now()}
}

// ID returns the trace ID (zero for a nil trace).
func (rt *ReqTrace) ID() TraceID {
	if rt == nil {
		return TraceID{}
	}
	return rt.id
}

// IDString returns the hex trace ID, or "" for a nil trace — the form log
// records want.
func (rt *ReqTrace) IDString() string {
	if rt == nil {
		return ""
	}
	return rt.id.String()
}

// SetEndpoint annotates the trace with its endpoint name.
func (rt *ReqTrace) SetEndpoint(name string) {
	if rt != nil {
		rt.endpoint = name
	}
}

// SetEpoch annotates the trace with the graph epoch the response was
// computed at.
func (rt *ReqTrace) SetEpoch(epoch uint64) {
	if rt != nil {
		rt.epoch = epoch
	}
}

// SetCacheHit marks the request as served from the result cache.
func (rt *ReqTrace) SetCacheHit(hit bool) {
	if rt != nil {
		rt.cacheHit = hit
	}
}

// ReqSpan times one stage of the request. Start/End must pair on every
// path — fgslint's pairdiscipline enforces it like any other resource.
type ReqSpan struct {
	rt    *ReqTrace
	stage Stage
	t0    time.Time
}

// Start opens a stage span. On a nil trace it returns an inert span without
// reading the clock.
func (rt *ReqTrace) Start(stage Stage) ReqSpan {
	if rt == nil {
		return ReqSpan{}
	}
	return ReqSpan{rt: rt, stage: stage, t0: rt.clock.Now()}
}

// End closes the span, accumulating into its stage (a stage entered twice —
// e.g. a cache probe retried — sums).
func (sp ReqSpan) End() {
	if sp.rt == nil {
		return
	}
	sp.rt.stages[sp.stage] += sp.rt.clock.Now().Sub(sp.t0)
	sp.rt.touched[sp.stage] = true
}

// StageDur returns the accumulated duration of one stage and whether the
// stage ran.
func (rt *ReqTrace) StageDur(stage Stage) (time.Duration, bool) {
	if rt == nil || !rt.touched[stage] {
		return 0, false
	}
	return rt.stages[stage], true
}

// Elapsed returns the time since the trace opened.
func (rt *ReqTrace) Elapsed() time.Duration {
	if rt == nil {
		return 0
	}
	return rt.clock.Now().Sub(rt.start)
}

// ServerTiming renders the touched stages as a Server-Timing header value:
// `cache;dur=0.012, compute;dur=123.456` (dur in milliseconds, per the
// spec). Returns "" when no stage ran.
func (rt *ReqTrace) ServerTiming() string {
	if rt == nil {
		return ""
	}
	var b strings.Builder
	for st := Stage(0); st < NumStages; st++ {
		if !rt.touched[st] {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		b.WriteString(stageNames[st])
		b.WriteString(";dur=")
		ms := float64(rt.stages[st]) / float64(time.Millisecond)
		b.WriteString(strconv.FormatFloat(ms, 'f', 3, 64))
	}
	return b.String()
}

// ParseServerTiming parses a Server-Timing header produced by ServerTiming
// (the metric;dur=ms subset of the spec) into per-stage durations. Unknown
// metrics are kept under their own names; entries without dur are skipped.
func ParseServerTiming(h string) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		if len(parts) == 0 || parts[0] == "" {
			continue
		}
		name := parts[0]
		for _, p := range parts[1:] {
			p = strings.TrimSpace(p)
			if rest, ok := strings.CutPrefix(p, "dur="); ok {
				if ms, err := strconv.ParseFloat(rest, 64); err == nil {
					out[name] = time.Duration(ms * float64(time.Millisecond))
				}
			}
		}
	}
	return out
}

// Event assembles the trace into one flight-recorder record. status is the
// HTTP status; total the full request duration as measured by the caller's
// instrumentation shell.
func (rt *ReqTrace) Event(status int, total time.Duration) FlightEvent {
	if rt == nil {
		return FlightEvent{}
	}
	ev := FlightEvent{
		Trace:    rt.id,
		Unix:     rt.start.UnixNano(),
		Endpoint: rt.endpoint,
		Status:   int32(status),
		Epoch:    rt.epoch,
		CacheHit: rt.cacheHit,
		Total:    int64(total),
	}
	for st := Stage(0); st < NumStages; st++ {
		if rt.touched[st] {
			ev.Stages[st] = int64(rt.stages[st])
		}
	}
	return ev
}

// --- context plumbing ----------------------------------------------------

type reqTraceKey struct{}

// WithReqTrace attaches the trace to a request context.
func WithReqTrace(ctx context.Context, rt *ReqTrace) context.Context {
	return context.WithValue(ctx, reqTraceKey{}, rt)
}

// ReqTraceFrom returns the context's trace, or nil — and every ReqTrace
// method is nil-safe, so callers never branch.
func ReqTraceFrom(ctx context.Context) *ReqTrace {
	rt, _ := ctx.Value(reqTraceKey{}).(*ReqTrace)
	return rt
}

// --- per-stage aggregation ------------------------------------------------

// StageStats aggregates request stage latencies into per-stage histograms
// (microsecond observations) and keeps, per bucket, the most recent trace
// ID as an exemplar — the Prometheus export's bridge from "the p99 moved"
// to one inspectable request. Safe for concurrent use.
type StageStats struct {
	hists     [NumStages]Histogram
	exemplars [NumStages][HistNumBuckets + 1]atomic.Pointer[Exemplar]
}

// NewStageStats returns an empty per-stage collector.
func NewStageStats() *StageStats { return &StageStats{} }

// ObserveTrace records every touched stage of a completed request. Nil-safe
// on both sides.
func (ss *StageStats) ObserveTrace(rt *ReqTrace) {
	if ss == nil || rt == nil {
		return
	}
	for st := Stage(0); st < NumStages; st++ {
		if !rt.touched[st] {
			continue
		}
		us := rt.stages[st].Microseconds()
		ss.hists[st].Observe(us)
		ex := &Exemplar{Labels: []Label{{Key: "trace_id", Val: rt.id.String()}}, Value: float64(us)}
		ss.exemplars[st][HistBucketOf(us)].Store(ex)
	}
}

// ObsMetrics exports one fgs_req_stage_us histogram per stage, each bucket
// carrying its latest trace-ID exemplar.
func (ss *StageStats) ObsMetrics() []Metric {
	if ss == nil {
		return nil
	}
	out := make([]Metric, 0, NumStages)
	for st := Stage(0); st < NumStages; st++ {
		hist := ss.hists[st].Snapshot()
		if hist.Count == 0 {
			continue
		}
		ex := make([]*Exemplar, HistNumBuckets+1)
		for b := range ex {
			ex[b] = ss.exemplars[st][b].Load()
		}
		out = append(out, Metric{
			Name:      "fgs_req_stage_us",
			Help:      "Request stage latency in microseconds, by pipeline stage; buckets carry trace-ID exemplars",
			Kind:      KindHistogram,
			Labels:    []Label{{Key: "stage", Val: stageNames[st]}},
			Hist:      &hist,
			Exemplars: ex,
		})
	}
	return out
}
