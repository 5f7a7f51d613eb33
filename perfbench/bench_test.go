package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	fgs "github.com/cwru-db/fgs"
	"github.com/cwru-db/fgs/datasets"
	"github.com/cwru-db/fgs/internal/obs"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999},
		{9999, 0.99},
		{1000, 0.99},
		{999, 0.9},
		{100, 0.9},
		{99, 0.75},
		{40, 0.75},
		{39, 0.5},
		{20, 0.5},
		{3, 0.5}, // too few for any tail: falls back to the median
	} {
		q := tailQuantile(tc.n)
		if q != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, q, tc.want)
		}
		if tc.n >= 20 && tc.n-rankIndex(q, tc.n)-1 < minBeyond {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than %d samples beyond it", tc.n, q, minBeyond)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100} {
		if got := quantileMs(ds, q); got != want {
			t.Errorf("quantileMs(1..100ms, %v) = %v, want %v", q, got, want)
		}
	}
	if got := quantileMs(nil, 0.5); got != 0 {
		t.Errorf("quantileMs(nil) = %v, want 0", got)
	}
}

// requestKey identifies a scheduled request independent of its pointers.
func requestKey(c *call, start time.Time) string {
	return fmt.Sprintf("%s %s %s %v %v", c.class, c.path, c.body, c.due.Sub(start), c.warm)
}

func keys(calls []*call, start time.Time) []string {
	out := make([]string, len(calls))
	for i, c := range calls {
		out[i] = requestKey(c, start)
	}
	return out
}

func TestSummarizeSequenceSeededAndDistinct(t *testing.T) {
	a, b, other := summarizeSeq(7), summarizeSeq(7), summarizeSeq(8)
	start0 := time.Time{}
	if !reflect.DeepEqual(keys(a, start0), keys(b, start0)) {
		t.Fatal("same seed gave different summarize sequences")
	}
	if reflect.DeepEqual(keys(a, start0), keys(other, start0)) {
		t.Fatal("different seeds gave the same summarize sequence")
	}
	seen := map[string]bool{}
	for _, c := range a {
		k := c.path + c.body
		if seen[k] {
			t.Fatalf("request %s repeats; it would hit the result cache", k)
		}
		seen[k] = true
	}
	// Every round sends each (r, n, utility) shape exactly once.
	round := summarizeRound
	if len(a) != round*summarizeRounds {
		t.Fatalf("sequence has %d requests, want %d", len(a), round*summarizeRounds)
	}
	for start := 0; start < len(a); start += round {
		shapes := map[string]int{}
		for _, c := range a[start : start+round] {
			shapes[fmt.Sprintf("%d/%d/%s", c.r, c.n, c.utility)]++
		}
		if len(shapes) != round {
			t.Fatalf("round at %d covers %d shapes, want %d", start, len(shapes), round)
		}
		// Every seed sends the same requests in each round, so every run
		// sends the same cost mix; only the order within a round differs.
		sameRound := func(cs []*call) []string {
			ks := keys(cs, start0)
			sort.Strings(ks)
			return ks
		}
		if !reflect.DeepEqual(sameRound(a[start:start+round]), sameRound(other[start:start+round])) {
			t.Fatalf("round at %d sends different requests under different seeds", start)
		}
	}
}

func TestIngestReadsSeeded(t *testing.T) {
	start := time.Unix(1000, 0)
	span := 12 * time.Second
	warmEnd := start.Add(2 * time.Second)
	build := func(seed int64) []*call { return ingestReads(seed, start, span, warmEnd) }
	a, b, other := build(3), build(3), build(4)
	if !reflect.DeepEqual(keys(a, start), keys(b, start)) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(keys(a, start), keys(other, start)) {
		t.Error("different seeds gave the same schedule")
	}
	for i, c := range a {
		if c.due.Before(start) || !c.due.Before(start.Add(span)) {
			t.Errorf("call %d due at %v, outside the span", i, c.due.Sub(start))
		}
		if i > 0 && c.due.Before(a[i-1].due) {
			t.Errorf("schedule not in due order at %d", i)
		}
		if c.warm != c.due.Before(warmEnd) {
			t.Errorf("call %d warm flag wrong", i)
		}
	}
	// The offered load is fixed: the same count whatever the seed.
	if n3, n4 := len(a), len(other); n3 != n4 || n3 != int(ingestReadRate*span.Seconds()) {
		t.Errorf("%d and %d arrivals, want %v", n3, n4, ingestReadRate*span.Seconds())
	}
}

// TestWholeRounds checks that the summarize sample keeps exactly the rounds
// the window holds whole: a round with a warm-up request, an unfinished
// (censored) request or an unsent one is left out.
func TestWholeRounds(t *testing.T) {
	seq := summarizeSeq(1)[:4*summarizeRound]
	m := &measured{}
	for i, c := range seq[:3*summarizeRound+2] {
		c.warm = i < 3
		c.status = http.StatusOK
		m.calls = append(m.calls, c)
	}
	// A request of round 2 is still running: only its censored copy is
	// collected.
	running := seq[2*summarizeRound+5]
	m.calls = append(m.calls[:2*summarizeRound+5], m.calls[2*summarizeRound+6:]...)
	m.calls = append(m.calls, &call{class: running.class, censored: true})
	got := wholeRounds(m, seq)
	if want := seq[summarizeRound : 2*summarizeRound]; !reflect.DeepEqual(got, want) {
		t.Fatalf("whole rounds: got %d requests, want round 1's %d", len(got), len(want))
	}
}

func TestArrivalsFixedCountSorted(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		got := arrivals(newRand(seed), 10, 3*time.Second)
		if len(got) != 30 {
			t.Fatalf("seed %d: %d arrivals, want 30", seed, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("seed %d: arrivals not sorted", seed)
			}
		}
	}
}

func TestDeckDealsExactMix(t *testing.T) {
	d := newDeck(newRand(1), map[string]int{"a": 3, "b": 1})
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		counts[d.deal()]++
	}
	if counts["a"] != 30 || counts["b"] != 10 {
		t.Fatalf("deck dealt %v over 10 rounds, want a=30 b=10", counts)
	}
}

// TestWriteGenNeverNoOp applies the generated writes, in order, to a copy of
// the graph: every insert must add an edge and every delete remove one, so
// no batch is ever a no-op and applied always equals the batch size.
func TestWriteGenNeverNoOp(t *testing.T) {
	g := demoGraph()
	edges := g.NumEdges()
	w := newWriteGen(g, 5, 0.5, 4)
	for i := 0; i < 40; i++ {
		b := w.slide(16)
		if err := applyBatch(g, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i >= w.lag && g.NumEdges() != edges+16*w.lag {
			t.Fatalf("batch %d: %d edges, want %d once the window is full", i, g.NumEdges(), edges+16*w.lag)
		}
	}
	// Only outstanding batches are kept: the generator's memory stays flat.
	if len(w.pending) != w.lag || len(w.live) != 16*w.lag {
		t.Fatalf("%d pending batches and %d live pairs, want %d and %d", len(w.pending), len(w.live), w.lag, 16*w.lag)
	}
	for _, b := range w.pending {
		if d := b.deletes; d != nil && d.deletes != nil {
			t.Fatal("a pending batch reaches back past the batch it deletes: batches chain")
		}
	}
}

// TestWriterTakesBackRefusedBatches drives the ingest writer against a copy
// of the graph that refuses some batches, as the engine's admission control
// may: every batch the copy accepts must still apply in full, including the
// ones sent after a refused batch, which would otherwise delete the refused
// batch's inserts, never made.
func TestWriterTakesBackRefusedBatches(t *testing.T) {
	g := demoGraph()
	edges := g.NumEdges()
	w := newWriteGen(g, 7, 0.1, 4)
	next := writer(w, 8)
	refuse := map[int]bool{2: true, 5: true, 6: true, 9: true, 13: true}
	accepted := 0
	for i := 0; i < 30; i++ {
		c := next()
		b := w.pending[len(w.pending)-1]
		if c.changes != b.size() {
			t.Fatalf("batch %d: call changes %d edges, batch %d", i, c.changes, b.size())
		}
		if refuse[i] {
			c.status = http.StatusServiceUnavailable
			continue
		}
		if err := applyBatch(g, b); err != nil {
			t.Fatalf("batch %d (after refusals %v): %v", i, refuse, err)
		}
		c.status = http.StatusOK
		accepted++
	}
	if want := edges + 8*w.lag; g.NumEdges() != want {
		t.Fatalf("%d edges after %d accepted batches, want %d", g.NumEdges(), accepted, want)
	}
}

// TestCheckMaintained boots a small engine with fgstore, writes through it,
// and reads the maintained summary back from the final snapshot: the gate
// must verify it and report its C_r. A data directory without a snapshot
// must fail the gate.
func TestCheckMaintained(t *testing.T) {
	small := func() *fgs.Graph { return datasets.LKISized(graphSeed, 3000) }
	e, err := boot(bootSpec{graph: small, groups: scaleGroups, store: true, scratch: t.TempDir()},
		func(g *fgs.Graph) *writeGen { return newWriteGen(g, 1, 0.1, 2) })
	if err != nil {
		t.Fatal(err)
	}
	defer e.remove()
	next := writer(e.writes, 32)
	for i := 0; i < 6; i++ {
		c := next()
		serve(e.h, c)
		if c.status != http.StatusOK {
			t.Fatalf("update %d: status %d: %s", i, c.status, c.resp)
		}
	}
	e.close()
	rep := &gateReport{}
	cr := checkMaintained(e.dir, scaleGroups, rep)
	if !rep.ok() || cr <= 0 || cr > 1 {
		t.Fatalf("maintained summary: C_r %v, problems %v", cr, rep.problems)
	}

	rep = &gateReport{}
	checkMaintained(t.TempDir(), scaleGroups, rep)
	if rep.ok() {
		t.Fatal("gate accepted a data directory without a snapshot")
	}
}

func TestServerTimingAggregation(t *testing.T) {
	sent := time.Unix(2000, 0)
	mk := func(class, timing string, total time.Duration) *call {
		return &call{
			class: class, status: http.StatusOK, due: sent, sent: sent, done: sent.Add(total),
			stages: obs.ParseServerTiming(timing),
		}
	}
	win := []*call{
		mk("view", "cache;dur=0.010, admission;dur=1.000, pin;dur=0.001, compute;dur=2.000, encode;dur=0.100", 4*time.Millisecond),
		mk("view", "cache;dur=0.030, admission;dur=3.000, pin;dur=0.003, compute;dur=4.000, encode;dur=0.300", 8*time.Millisecond),
		mk("update", "admission;dur=5.000, compute;dur=6.000, encode;dur=0.500", 12*time.Millisecond),
	}
	lm := newLayerMetrics()
	lm.server(win, func(c *call) bool { return c.class == "view" })
	for name, want := range map[string]float64{
		"server.cache_us":              20,   // mean of the views' 10 and 30 µs probes
		"server.admission.wait_us":     3000, // mean of 1, 3 and 5 ms, updates included
		"server.pin_us":                2,
		"server.compute_ms":            3, // the headline class (views) only
		"server.encode_us":             200,
		"server.shell_us":              778, // mean of 4 − 3.111 ms and 8 − 7.333 ms
		"server.admission.refused_pct": 0,
	} {
		if got := lm.vals[name]; math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if len(lm.spans.calls) != len(win) {
		t.Errorf("recorded %d request spans, want %d", len(lm.spans.calls), len(win))
	}
}

// summaryCall computes a small summary on the demo graph and wraps it as
// the engine's summarize response.
func summaryCall(t *testing.T, g *fgs.Graph, groups *fgs.Groups) (*call, map[string]any) {
	t.Helper()
	c := summarizeCall("summarize", 2, 0, 4, "coverage")
	s, err := fgs.Summarize(g, groups, fgs.NewNeighborCoverage(g, fgs.NeighborsIn, ""), fgs.Config{R: 2, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fgs.WriteSummaryJSON(&buf, s, g); err != nil {
		t.Fatal(err)
	}
	var sum map[string]any
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	return c, sum
}

func respond(c *call, sum map[string]any) {
	c.status = http.StatusOK
	c.resp = []byte(mustJSON(map[string]any{"epoch": 0, "summary": sum}))
}

func TestGateAcceptsSummaryAndRejectsCorruptions(t *testing.T) {
	g := demoGraph()
	groups, err := demoGroups.build(g)
	if err != nil {
		t.Fatal(err)
	}
	c, sum := summaryCall(t, g, groups)
	respond(c, sum)
	rep := &gateReport{}
	verifySummaries(g, groups, []*call{c}, rep)
	if !rep.ok() || rep.verified() != 1 || rep.summaryCR([]*call{c}) <= 0 {
		t.Fatalf("gate rejected a correct summary: %v (verified %d)", rep.problems, rep.verified())
	}

	covered := sum["covered"].([]any)
	for name, corrupt := range map[string]func(map[string]any){
		"drop a correction": func(s map[string]any) {
			cs := s["corrections"].([]any)
			s["corrections"] = cs[:len(cs)-1]
		},
		"claim an uncovered node": func(s map[string]any) {
			s["covered"] = append(append([]any(nil), covered...), float64(g.NumNodes()-1))
		},
		"wrong r": func(s map[string]any) { s["r"] = 1 },
	} {
		_, bad := summaryCall(t, g, groups)
		if name == "drop a correction" && len(bad["corrections"].([]any)) == 0 {
			t.Fatalf("fixture summary has no corrections to drop")
		}
		corrupt(bad)
		bc := summarizeCall("summarize", 2, 0, 4, "coverage")
		respond(bc, bad)
		rep := &gateReport{}
		verifySummaries(g, groups, []*call{bc}, rep)
		if rep.ok() {
			t.Errorf("%s: gate accepted a corrupted summary", name)
		}
	}

	// A summary computed at a later epoch means something was written.
	late, sum := summaryCall(t, g, groups)
	late.status = http.StatusOK
	late.resp = []byte(mustJSON(map[string]any{"epoch": 3, "summary": sum}))
	rep = &gateReport{}
	verifySummaries(g, groups, []*call{late}, rep)
	if rep.ok() {
		t.Error("gate accepted a summary from a nonzero epoch")
	}
}

// TestGateVerifiesHubAnchorsUnderCap builds the shape that kept the gate
// busy for minutes on the scale graph: a star of four corev edges into a
// hub, anchored at a user with an edge into that hub. At hubIn in-edges the
// star has about hubIn³ = 8e9 embeddings there, which an uncapped parse
// takes minutes to enumerate. Under the cap the parse must finish at once
// and still find every edge of the star, since the summary has no
// corrections to make up for one it missed.
func TestGateVerifiesHubAnchorsUnderCap(t *testing.T) {
	const hubIn = 2000
	g := fgs.NewGraph()
	v := g.AddNode("user", nil)
	hub := g.AddNode("user", nil)
	edge := func(from, to fgs.NodeID) {
		if err := g.AddEdge(from, to, "corev"); err != nil {
			t.Fatal(err)
		}
	}
	edge(v, hub)
	for i := 0; i < hubIn; i++ {
		edge(g.AddNode("user", nil), hub)
	}
	groups, err := fgs.NewGroups(fgs.Group{Name: "anchor", Members: []fgs.NodeID{v}, Lower: 1, Upper: 1})
	if err != nil {
		t.Fatal(err)
	}
	var nodes []any
	for i := 0; i < 5; i++ {
		nodes = append(nodes, map[string]any{"label": "user"})
	}
	var edges []any
	for _, from := range []int{0, 2, 3, 4} {
		edges = append(edges, map[string]any{"from": from, "to": 1, "label": "corev"})
	}
	star := map[string]any{"focus": 0, "nodes": nodes, "edges": edges, "covered": []any{v}}
	c := summarizeCall("summarize", 2, 0, 1, "coverage")
	respond(c, map[string]any{"r": 2, "patterns": []any{star}, "covered": []any{v}, "corrections": []any{}})
	done := make(chan *gateReport, 1)
	go func() {
		rep := &gateReport{}
		verifySummaries(g, groups, []*call{c}, rep)
		done <- rep
	}()
	select {
	case rep := <-done:
		if !rep.ok() || rep.verified() != 1 {
			t.Fatalf("gate rejected the hub star: %v", rep.problems)
		}
	case <-time.After(time.Minute):
		t.Fatal("gate still verifying the hub star after a minute")
	}
}

func TestGateChecksUpdatesAndStatuses(t *testing.T) {
	for _, tc := range []struct {
		name   string
		c      *call
		wantOK bool
	}{
		{"applied in full", &call{class: "update", changes: 2, status: 200, resp: []byte(`{"epoch":1,"applied":2}`)}, true},
		{"applied short", &call{class: "update", changes: 2, status: 200, resp: []byte(`{"epoch":1,"applied":1}`)}, false},
		{"refused", &call{class: "update", changes: 2, status: 503, resp: []byte(`{}`)}, true},
		{"bad request", &call{class: "view", status: 400, resp: []byte(`{}`)}, false},
		{"server error", &call{class: "stats", status: 500, resp: []byte(`{}`)}, false},
	} {
		rep := &gateReport{}
		checkStatuses([]*call{tc.c}, rep)
		if rep.ok() != tc.wantOK {
			t.Errorf("%s: gate ok = %v, want %v (%v)", tc.name, rep.ok(), tc.wantOK, rep.problems)
		}
	}
}

func TestOutputLastLineIsResult(t *testing.T) {
	out := &outcome{correct: true, attempted: 3, metrics: []metric{{"p50_ms", "ms", 1.25}}}
	text := captureStdout(t, func() { report(out) })
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var res struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Attempted != 3 || res.Metrics["p50_ms"]["value"] != 1.25 || res.Metrics["p50_ms"]["unit"] != "ms" {
		t.Fatalf("result line %+v", res)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// captureStdout returns what f writes to standard output.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	f()
	os.Stdout = saved
	w.Close()
	return <-done
}

// TestDriveCollectsAndCensors runs both loop kinds against a stub handler:
// every request is collected once, warm-up ones are flagged, and one the
// handler holds past the drain deadline comes back censored.
func TestDriveCollectsAndCensors(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/summarize" {
			<-release
		}
		time.Sleep(time.Millisecond)
		w.Header().Set("Server-Timing", "compute;dur=1.000")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"epoch":0}`)
	})
	next := func() *call { return statsCall() }
	m := drive(300*time.Millisecond, 50*time.Millisecond, func(w window, col *collector, lag *lagLog) {
		sched := []*call{viewCall("n 0 user\nf 0"), summarizeCall("summarize", 1, 0, 4, "coverage"), viewCall("n 0 user\nf 0")}
		for i, c := range sched {
			c.due = w.start.Add(time.Duration(i) * 50 * time.Millisecond)
		}
		sched[0].due = w.start.Add(-time.Millisecond)
		sched[0].warm = true
		openLoop(h, sched, col, lag)
		closedLoop(h, 2, next, w, col, lag)
	})
	censored, warm, closedCalls := 0, 0, 0
	for _, c := range m.calls {
		if c.censored {
			censored++
			if c.class != "summarize" {
				t.Errorf("censored a %s call", c.class)
			}
			continue
		}
		// Sent calls keep no request body, and views and stats no response.
		if c.body != "" || (c.class != "summarize" && c.resp != nil) {
			t.Errorf("%s call kept body %q, response %q", c.class, c.body, c.resp)
		}
		if c.warm {
			warm++
		}
		if c.class == "stats" {
			closedCalls++
			if c.stages["compute"] != time.Millisecond {
				t.Errorf("stats call stages %v, want compute 1ms", c.stages)
			}
		}
	}
	if censored != 1 {
		t.Errorf("%d censored calls, want 1", censored)
	}
	if warm == 0 {
		t.Error("no call flagged as warm-up")
	}
	if closedCalls < 10 {
		t.Errorf("closed loop completed %d calls, want many", closedCalls)
	}
}
