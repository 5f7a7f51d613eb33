package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceparentRoundTrip(t *testing.T) {
	tid := TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	span := SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}
	h := FormatTraceparent(tid, span, true)
	want := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if h != want {
		t.Fatalf("FormatTraceparent = %q, want %q", h, want)
	}
	gotTid, gotSpan, sampled, ok := ParseTraceparent(h)
	if !ok || gotTid != tid || gotSpan != span || !sampled {
		t.Fatalf("ParseTraceparent(%q) = %v %v %v %v", h, gotTid, gotSpan, sampled, ok)
	}
	if _, _, sampled, ok = ParseTraceparent(FormatTraceparent(tid, span, false)); !ok || sampled {
		t.Fatalf("unsampled round trip: sampled=%v ok=%v", sampled, ok)
	}
}

func TestParseTraceparentRejectsInvalid(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	bad := []string{
		"",
		"garbage",
		valid[:54],       // truncated
		valid + "-extra", // version 00 must be exactly 55 chars
		"ff" + valid[2:], // version ff is forbidden
		"0x" + valid[2:], // non-hex version
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",                 // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-" + strings.Repeat("0", 16) + "-01", // zero parent
		"00-4bf92f3577b34da6a3ce929d0e0e473X-00f067aa0ba902b7-01",                // non-hex trace ID
		strings.Replace(valid, "-", "_", 1),                                      // wrong separator
	}
	for _, h := range bad {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", h)
		}
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// Per the spec's forward-compatibility rule a higher version with
	// trailing fields parses as version 00 plus ignored extras.
	h := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extrafield"
	tid, _, _, ok := ParseTraceparent(h)
	if !ok || tid.IsZero() {
		t.Fatalf("future version with trailing field rejected: ok=%v", ok)
	}
	// ...but only when the extras are properly "-"-separated.
	if _, _, _, ok := ParseTraceparent(h[:55] + "junk"); ok {
		t.Fatal("future version with malformed trailing field accepted")
	}
}

func TestTraceIDGenUniqueNonZero(t *testing.T) {
	g := NewTraceIDGen(42)
	seen := make(map[TraceID]bool)
	for i := 0; i < 10000; i++ {
		id := g.Next()
		if id.IsZero() {
			t.Fatal("generated the invalid zero trace ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %s after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestTraceIDGenConcurrentUnique(t *testing.T) {
	g := NewTraceIDGen(7)
	const workers, per = 8, 500
	ids := make([][]TraceID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ids[w] = append(ids[w], g.Next())
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[TraceID]bool, workers*per)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("duplicate trace ID %s across goroutines", id)
			}
			seen[id] = true
		}
	}
}

func TestReqTraceStages(t *testing.T) {
	clk := NewFrozen(time.Unix(1000, 0))
	rt := NewReqTrace(clk, TraceID{1}, SpanID{})

	sp := rt.Start(StageCache)
	clk.Advance(250 * time.Microsecond)
	sp.End()

	sp = rt.Start(StageCompute)
	clk.Advance(12 * time.Millisecond)
	sp.End()

	// A stage entered twice accumulates.
	sp = rt.Start(StageCache)
	clk.Advance(250 * time.Microsecond)
	sp.End()

	if d, ok := rt.StageDur(StageCache); !ok || d != 500*time.Microsecond {
		t.Fatalf("StageCache = %v %v, want 500µs true", d, ok)
	}
	if d, ok := rt.StageDur(StageCompute); !ok || d != 12*time.Millisecond {
		t.Fatalf("StageCompute = %v %v, want 12ms true", d, ok)
	}
	if _, ok := rt.StageDur(StageEncode); ok {
		t.Fatal("StageEncode reported as run, but it never started")
	}
	if got := rt.Elapsed(); got != 12*time.Millisecond+500*time.Microsecond {
		t.Fatalf("Elapsed = %v", got)
	}

	want := "cache;dur=0.500, compute;dur=12.000"
	if got := rt.ServerTiming(); got != want {
		t.Fatalf("ServerTiming = %q, want %q", got, want)
	}
	parsed := ParseServerTiming(rt.ServerTiming())
	if parsed["cache"] != 500*time.Microsecond || parsed["compute"] != 12*time.Millisecond {
		t.Fatalf("ParseServerTiming round trip = %v", parsed)
	}
}

func TestReqTraceNilSafe(t *testing.T) {
	var rt *ReqTrace
	rt.SetEndpoint("x")
	rt.SetEpoch(3)
	rt.SetCacheHit(true)
	sp := rt.Start(StageCompute)
	sp.End()
	if rt.IDString() != "" || !rt.ID().IsZero() || rt.ServerTiming() != "" || rt.Elapsed() != 0 {
		t.Fatal("nil ReqTrace leaked state")
	}
	if ev := rt.Event(200, time.Second); ev != (FlightEvent{}) {
		t.Fatalf("nil Event = %+v", ev)
	}
	var ss *StageStats
	ss.ObserveTrace(rt) // must not panic
	if ss.ObsMetrics() != nil {
		t.Fatal("nil StageStats exported metrics")
	}
}

func TestReqTraceContext(t *testing.T) {
	if rt := ReqTraceFrom(context.Background()); rt != nil {
		t.Fatal("empty context yielded a trace")
	}
	rt := NewReqTrace(NewFrozen(time.Unix(0, 0)), TraceID{9}, SpanID{})
	ctx := WithReqTrace(context.Background(), rt)
	if got := ReqTraceFrom(ctx); got != rt {
		t.Fatal("trace did not round-trip through the context")
	}
}

func TestReqTraceEvent(t *testing.T) {
	clk := NewFrozen(time.Unix(5, 0))
	rt := NewReqTrace(clk, TraceID{0xab}, SpanID{1})
	rt.SetEndpoint("summarize")
	rt.SetEpoch(7)
	rt.SetCacheHit(true)
	sp := rt.Start(StagePin)
	clk.Advance(time.Millisecond)
	sp.End()

	ev := rt.Event(200, 3*time.Millisecond)
	if ev.Trace != rt.ID() || ev.Endpoint != "summarize" || ev.Status != 200 ||
		ev.Epoch != 7 || !ev.CacheHit || ev.Total != int64(3*time.Millisecond) {
		t.Fatalf("Event = %+v", ev)
	}
	if ev.Stages[StagePin] != int64(time.Millisecond) || ev.Stages[StageCompute] != 0 {
		t.Fatalf("Event stages = %v", ev.Stages)
	}
	if ev.Unix != time.Unix(5, 0).UnixNano() {
		t.Fatalf("Event start = %d", ev.Unix)
	}
}

func TestStageStatsExemplars(t *testing.T) {
	clk := NewFrozen(time.Unix(0, 0))
	ss := NewStageStats()

	rt := NewReqTrace(clk, TraceID{1}, SpanID{})
	sp := rt.Start(StageCompute)
	clk.Advance(100 * time.Microsecond)
	sp.End()
	ss.ObserveTrace(rt)

	ms := ss.ObsMetrics()
	if len(ms) != 1 {
		t.Fatalf("ObsMetrics = %d series, want 1 (untouched stages skipped)", len(ms))
	}
	m := ms[0]
	if m.Name != "fgs_req_stage_us" || len(m.Labels) != 1 || m.Labels[0].Val != "compute" {
		t.Fatalf("series = %+v", m)
	}
	if m.Hist.Count != 1 || m.Hist.Sum != 100 {
		t.Fatalf("hist = %+v", m.Hist)
	}
	b := HistBucketOf(100)
	ex := m.Exemplars[b]
	if ex == nil || ex.Value != 100 || ex.Labels[0].Key != "trace_id" || ex.Labels[0].Val != rt.IDString() {
		t.Fatalf("exemplar at bucket %d = %+v", b, ex)
	}
	for i, e := range m.Exemplars {
		if i != b && e != nil {
			t.Fatalf("unexpected exemplar at bucket %d", i)
		}
	}
}

func TestStageStatsConcurrent(t *testing.T) {
	ss := NewStageStats()
	clk := NewFrozen(time.Unix(0, 0))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rt := NewReqTrace(clk, TraceID{byte(w), byte(i)}, SpanID{})
				sp := rt.Start(StageCompute)
				sp.End()
				ss.ObserveTrace(rt)
				if i%16 == 0 {
					ss.ObsMetrics() // concurrent export must be race-free
				}
			}
		}(w)
	}
	wg.Wait()
	ms := ss.ObsMetrics()
	if len(ms) != 1 || ms[0].Hist.Count != 8*200 {
		t.Fatalf("after concurrent observes: %+v", ms)
	}
}
