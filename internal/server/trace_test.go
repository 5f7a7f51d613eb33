package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cwru-db/fgs/internal/leakcheck"
	"github.com/cwru-db/fgs/internal/obs"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)

// syncBuffer is a goroutine-safe bytes.Buffer for log/dump capture: handler
// goroutines write while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDeterminismTracingOnOff is the tracing-inertness contract: the
// identical request sequence with tracing on and off yields byte-identical
// response bodies. Trace state may only ever reach headers, logs, and
// metrics — never the response.
func TestDeterminismTracingOnOff(t *testing.T) {
	_, traced := newTestServer(t, Config{})
	_, untraced := newTestServer(t, Config{DisableTracing: true})
	a := runScript(t, traced)
	b := runScript(t, untraced)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("step %d (%s %s): tracing on vs off differ:\n  %s\n  %s",
				i, determinismScript[i].path, determinismScript[i].body, a[i], b[i])
		}
	}
}

func TestTraceHeaders(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})

	resp, body := post(t, ts, "/v1/summarize", `{"n":4}`)
	wantStatus(t, resp, body, http.StatusOK)
	tid := resp.Header.Get("X-Fgs-Trace")
	if !traceIDRe.MatchString(tid) {
		t.Fatalf("X-Fgs-Trace = %q, want 32 hex digits", tid)
	}
	if got := resp.Header.Get("X-Fgs-Epoch"); got != "0" {
		t.Fatalf("X-Fgs-Epoch = %q, want 0", got)
	}
	st := obs.ParseServerTiming(resp.Header.Get("Server-Timing"))
	for _, stage := range []string{"cache", "admission", "pin", "compute", "encode"} {
		if _, ok := st[stage]; !ok {
			t.Errorf("Server-Timing %q missing stage %s", resp.Header.Get("Server-Timing"), stage)
		}
	}

	// A second identical request is a cache hit: still traced, epoch header
	// present, and the stage breakdown shows the probe without a compute.
	resp, body = post(t, ts, "/v1/summarize", `{"n":4}`)
	wantStatus(t, resp, body, http.StatusOK)
	if resp.Header.Get("X-Fgs-Cache") != "hit" {
		t.Fatal("second request missed the cache")
	}
	if got := resp.Header.Get("X-Fgs-Epoch"); got != "0" {
		t.Fatalf("cache hit X-Fgs-Epoch = %q, want 0", got)
	}
	hit := resp.Header.Get("X-Fgs-Trace")
	if !traceIDRe.MatchString(hit) || hit == tid {
		t.Fatalf("cache hit X-Fgs-Trace = %q (first was %q): want a fresh valid ID", hit, tid)
	}
	st = obs.ParseServerTiming(resp.Header.Get("Server-Timing"))
	if _, ok := st["cache"]; !ok {
		t.Errorf("cache hit Server-Timing %q missing cache stage", resp.Header.Get("Server-Timing"))
	}
	if _, ok := st["compute"]; ok {
		t.Errorf("cache hit Server-Timing %q reports a compute stage", resp.Header.Get("Server-Timing"))
	}

	// The epoch header follows writes: after an applied update, compute
	// responses carry the new epoch.
	resp, body = post(t, ts, "/v1/update", `{"insert":[{"from":0,"to":12,"label":"corev"}]}`)
	wantStatus(t, resp, body, http.StatusOK)
	if got := resp.Header.Get("X-Fgs-Epoch"); got != "1" {
		t.Fatalf("update X-Fgs-Epoch = %q, want 1", got)
	}
	resp, body = get(t, ts, "/v1/stats")
	wantStatus(t, resp, body, http.StatusOK)
	if got := resp.Header.Get("X-Fgs-Epoch"); got != "1" {
		t.Fatalf("stats X-Fgs-Epoch = %q, want 1", got)
	}
}

func TestTraceparentPropagation(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})
	const parentID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+parentID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Fgs-Trace"); got != parentID {
		t.Fatalf("X-Fgs-Trace = %q, want propagated %q", got, parentID)
	}

	// A malformed traceparent falls back to a minted ID rather than failing.
	req.Header.Set("traceparent", "00-zzz-bad-01")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Fgs-Trace"); !traceIDRe.MatchString(got) || got == parentID {
		t.Fatalf("X-Fgs-Trace = %q after malformed traceparent, want fresh minted ID", got)
	}
}

func TestTracingDisabledOmitsHeaders(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{DisableTracing: true})
	resp, body := post(t, ts, "/v1/summarize", `{"n":4}`)
	wantStatus(t, resp, body, http.StatusOK)
	for _, h := range []string{"X-Fgs-Trace", "Server-Timing"} {
		if got := resp.Header.Get(h); got != "" {
			t.Errorf("%s = %q with tracing disabled, want absent", h, got)
		}
	}
	// The epoch header is a satellite of the response, not of tracing.
	if got := resp.Header.Get("X-Fgs-Epoch"); got != "0" {
		t.Errorf("X-Fgs-Epoch = %q with tracing disabled, want 0", got)
	}
	resp, body = get(t, ts, "/debug/fgs/flightrecorder")
	wantStatus(t, resp, body, http.StatusNotFound)
}

func TestDebugViewsEndpoint(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, "/v1/update", `{"insert":[{"from":0,"to":12,"label":"corev"}]}`)
	wantStatus(t, resp, body, http.StatusOK)

	resp, body = get(t, ts, "/debug/fgs/views")
	wantStatus(t, resp, body, http.StatusOK)
	var d ViewsDebug
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("bad views debug body %s: %v", body, err)
	}
	if d.Mode != ReadModeMVCC || d.Epoch != 1 || d.Current.Epoch != 1 {
		t.Fatalf("views debug = %+v, want mvcc at epoch 1", d)
	}
	if d.Replicas != d.MaxViews || d.Publishes != 1 || d.LogLen == 0 {
		t.Fatalf("views debug pool state = %+v", d)
	}
}

func TestDebugCacheEndpoint(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, "/v1/summarize", `{"n":4}`)
	wantStatus(t, resp, body, http.StatusOK)

	resp, body = get(t, ts, "/debug/fgs/cache")
	wantStatus(t, resp, body, http.StatusOK)
	var d CacheDebug
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("bad cache debug body %s: %v", body, err)
	}
	if d.Stats.Entries != 1 || len(d.Entries) != 1 {
		t.Fatalf("cache debug = %+v, want one entry", d)
	}
	if !strings.HasPrefix(d.Entries[0].Key, "0|") || d.Entries[0].Bytes <= 0 {
		t.Fatalf("cache entry = %+v, want epoch-0-prefixed key with a body", d.Entries[0])
	}
}

func TestDebugFairnessEndpoint(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{})
	resp, body := get(t, ts, "/debug/fgs/fairness")
	wantStatus(t, resp, body, http.StatusOK)
	var d FairnessResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("bad fairness body %s: %v", body, err)
	}

	rc := s.acquireRead(nil)
	counts := s.groups.Counts(rc.summary.Covered)
	wantTotal := len(rc.summary.Covered)
	rc.release()

	if d.Epoch != 0 || d.CoveredTotal != wantTotal {
		t.Fatalf("fairness = %+v, want epoch 0 coveredTotal %d", d, wantTotal)
	}
	if len(d.Groups) != 2 || d.Groups[0].Name != "male" || d.Groups[1].Name != "female" {
		t.Fatalf("fairness groups = %+v", d.Groups)
	}
	allSat := true
	for i, g := range d.Groups {
		if g.Covered != counts[i] {
			t.Errorf("group %s covered = %d, want %d", g.Name, g.Covered, counts[i])
		}
		wantSat := g.Covered >= g.Lower && g.Covered <= g.Upper
		if g.Satisfied != wantSat {
			t.Errorf("group %s satisfied = %v, bounds [%d,%d] covered %d", g.Name, g.Satisfied, g.Lower, g.Upper, g.Covered)
		}
		if g.Size == 0 || g.Coverage != float64(g.Covered)/float64(g.Size) {
			t.Errorf("group %s coverage = %v (covered %d size %d)", g.Name, g.Coverage, g.Covered, g.Size)
		}
		allSat = allSat && wantSat
	}
	if d.Satisfied != allSat {
		t.Errorf("overall satisfied = %v, want %v", d.Satisfied, allSat)
	}
}

func TestDebugFlightRecorderEndpoint(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, "/v1/summarize", `{"n":4}`)
	wantStatus(t, resp, body, http.StatusOK)
	tid := resp.Header.Get("X-Fgs-Trace")

	resp, body = get(t, ts, "/debug/fgs/flightrecorder")
	wantStatus(t, resp, body, http.StatusOK)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("flight recorder Content-Type = %q", ct)
	}
	out := string(body)
	if !strings.Contains(out, "summarize") || !strings.Contains(out, tid) {
		t.Fatalf("flight recorder missing the summarize request (trace %s):\n%s", tid, out)
	}

	// Browsing the recorder must not record the browse: a second fetch still
	// shows no debug-flightrecorder entries.
	resp, body = get(t, ts, "/debug/fgs/flightrecorder")
	wantStatus(t, resp, body, http.StatusOK)
	if strings.Contains(string(body), "debug-flightrecorder") {
		t.Fatalf("flight recorder recorded its own browse:\n%s", body)
	}
}

func TestSlowRequestLogAndDump(t *testing.T) {
	leakcheck.Check(t)
	var logs, dump syncBuffer
	_, ts := newTestServer(t, Config{
		SlowRequest: time.Nanosecond, // every request is "slow"
		Log:         slog.New(slog.NewTextHandler(&logs, nil)),
		FlightDump:  &dump,
	})
	resp, body := post(t, ts, "/v1/summarize", `{"n":4}`)
	wantStatus(t, resp, body, http.StatusOK)
	tid := resp.Header.Get("X-Fgs-Trace")

	if out := logs.String(); !strings.Contains(out, "slow request") || !strings.Contains(out, tid) {
		t.Fatalf("slow-request log missing (trace %s):\n%s", tid, out)
	}
	if out := dump.String(); !strings.Contains(out, "reason=slow") {
		t.Fatalf("flight dump missing after slow request:\n%s", out)
	}
}

func TestPanicDumpsFlightRecorder(t *testing.T) {
	leakcheck.Check(t)
	var logs, dump syncBuffer
	s, ts := newTestServer(t, Config{
		Log:        slog.New(slog.NewTextHandler(&logs, nil)),
		FlightDump: &dump,
	})
	var fired atomic.Bool
	s.testHook = func(endpoint string) {
		if endpoint == "workload" && fired.CompareAndSwap(false, true) {
			panic("poisoned request")
		}
	}
	resp, body := post(t, ts, "/v1/workload", ``)
	wantStatus(t, resp, body, http.StatusInternalServerError)
	tid := resp.Header.Get("X-Fgs-Trace")

	if out := logs.String(); !strings.Contains(out, "request failed") || !strings.Contains(out, tid) {
		t.Fatalf("5xx log missing (trace %s):\n%s", tid, out)
	}
	out := dump.String()
	if !strings.Contains(out, "reason=5xx") || !strings.Contains(out, tid) {
		t.Fatalf("flight dump missing after 5xx:\n%s", out)
	}

	// The server keeps serving after the poisoned request.
	resp, body = post(t, ts, "/v1/workload", ``)
	wantStatus(t, resp, body, http.StatusOK)
}

func TestPublishLogged(t *testing.T) {
	leakcheck.Check(t)
	var logs syncBuffer
	_, ts := newTestServer(t, Config{Log: slog.New(slog.NewTextHandler(&logs, nil))})
	resp, body := post(t, ts, "/v1/update", `{"insert":[{"from":0,"to":12,"label":"corev"}]}`)
	wantStatus(t, resp, body, http.StatusOK)
	out := logs.String()
	if !strings.Contains(out, "publish") || !strings.Contains(out, "epoch=1") {
		t.Fatalf("publish log missing:\n%s", out)
	}
}

func TestStageMetricsExported(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, "/v1/summarize", `{"n":4}`)
	wantStatus(t, resp, body, http.StatusOK)
	tid := resp.Header.Get("X-Fgs-Trace")

	resp, body = get(t, ts, "/metrics")
	wantStatus(t, resp, body, http.StatusOK)
	out := string(body)
	for _, want := range []string{
		`fgs_req_stage_us_count{stage="compute"} 1`,
		`trace_id="` + tid + `"`,
		`fgs_fairness_covered{group="male"}`,
		`fgs_fairness_lower_bound{group="female"} 1`,
		`fgs_flight_recorded_total`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRequestsAddNoSpans pins that a request's timing is recorded once, in
// the endpoint series and its request trace: with an observer attached,
// requests add nothing to the observer's trace, and /metrics still serves
// the per-endpoint series.
func TestRequestsAddNoSpans(t *testing.T) {
	leakcheck.Check(t)
	o := obs.NewObserver(nil)
	_, ts := newTestServer(t, Config{Obs: o})
	before := o.Trace.Len()
	for i := 0; i < 50; i++ {
		resp, body := get(t, ts, "/v1/stats")
		wantStatus(t, resp, body, http.StatusOK)
	}
	if got := o.Trace.Len(); got != before {
		t.Fatalf("50 stats requests grew the trace from %d to %d records", before, got)
	}
	resp, body := get(t, ts, "/metrics")
	wantStatus(t, resp, body, http.StatusOK)
	if want := `fgs_http_requests_total{endpoint="stats"} 50`; !strings.Contains(string(body), want) {
		t.Fatalf("/metrics missing %q:\n%s", want, body)
	}
}
