package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFrozenClockSpanTree(t *testing.T) {
	clk := NewFrozen(time.Unix(1000, 0))
	tr := NewTrace(clk)

	root := tr.Start("run")
	clk.Advance(10 * time.Millisecond)
	sel := root.Child("select")
	clk.Advance(5 * time.Millisecond)
	sel.SetArg("groups", 3)
	sel.End()
	mine := root.Child("mine")
	clk.Advance(20 * time.Millisecond)
	mine.End()
	clk.Advance(time.Millisecond)
	root.End()

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Name != "run" || recs[0].Parent != -1 || recs[0].Start != 0 || recs[0].Dur != 36*time.Millisecond {
		t.Errorf("root record wrong: %+v", recs[0])
	}
	if recs[1].Name != "select" || recs[1].Parent != 0 || recs[1].Start != 10*time.Millisecond || recs[1].Dur != 5*time.Millisecond {
		t.Errorf("select record wrong: %+v", recs[1])
	}
	if len(recs[1].Args) != 1 || recs[1].Args[0] != (SpanArg{Key: "groups", Val: 3}) {
		t.Errorf("select args wrong: %+v", recs[1].Args)
	}
	if recs[2].Name != "mine" || recs[2].Parent != 0 || recs[2].Start != 15*time.Millisecond || recs[2].Dur != 20*time.Millisecond {
		t.Errorf("mine record wrong: %+v", recs[2])
	}
}

func TestInertSpanZeroAlloc(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		s := tr.Start("x")
		c := s.Child("y")
		c.SetArg("k", 1)
		c.End()
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("inert span path allocates: %v allocs/op", allocs)
	}
}

func TestNilSafety(t *testing.T) {
	var o *Observer
	if o.GetTrace() != nil || o.GetReg() != nil {
		t.Error("nil observer should expose nil trace/registry")
	}
	if o.GetClock() == nil {
		t.Error("nil observer clock should default to System")
	}
	o.Register(nil) // must not panic

	var r *Registry
	r.Register(nil)
	r.Add("x", "", nil, 1)
	if got := r.Gather(); got != nil {
		t.Errorf("nil registry Gather = %v, want nil", got)
	}

	var tr *Trace
	if tr.Len() != 0 || tr.Records() != nil {
		t.Error("nil trace should be empty")
	}
	if tr.Clock() == nil {
		t.Error("nil trace clock should default to System")
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatalf("WriteChromeTrace(nil): %v", err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Errorf("empty trace output wrong: %s", buf.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 100, 1 << 20} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 0+1+2+3+4+100+(1<<20) {
		t.Fatalf("sum = %d", s.Sum)
	}
	// bucket 0 holds v <= 1 (0 and 1), bucket 1 adds v=2, bucket 2 adds 3,4.
	if s.Buckets[0] != 2 || s.Buckets[1] != 3 || s.Buckets[2] != 5 {
		t.Errorf("low buckets wrong: %v", s.Buckets)
	}
	// 100 <= 128 = 2^7.
	if s.Buckets[7] != 6 || s.Buckets[6] != 5 {
		t.Errorf("bucket for 100 wrong: %v", s.Buckets)
	}
	// overflow bucket is cumulative total.
	if s.Buckets[HistNumBuckets] != 7 {
		t.Errorf("overflow bucket = %d, want 7", s.Buckets[HistNumBuckets])
	}
}

type staticSource []Metric

func (s staticSource) ObsMetrics() []Metric { return s }

func TestRegistryMergeAndSort(t *testing.T) {
	r := NewRegistry()
	// Two sources emitting the same counter series, as two successive runs
	// registering fresh caches would.
	r.Register(staticSource{
		{Name: "fgs_ercache_hits_total", Kind: KindCounter, Labels: []Label{{Key: "shard", Val: "0"}}, Value: 3},
		{Name: "fgs_b_gauge", Kind: KindGauge, Value: 1},
	})
	r.Register(staticSource{
		{Name: "fgs_ercache_hits_total", Kind: KindCounter, Labels: []Label{{Key: "shard", Val: "0"}}, Value: 4},
		{Name: "fgs_b_gauge", Kind: KindGauge, Value: 9},
	})
	r.Add("fgs_a_total", "help", nil, 5)
	r.Add("fgs_a_total", "help", nil, 2)

	got := r.Gather()
	if len(got) != 3 {
		t.Fatalf("got %d series, want 3: %+v", len(got), got)
	}
	// sorted: fgs_a_total, fgs_b_gauge, fgs_ercache_hits_total{shard=0}
	if got[0].Name != "fgs_a_total" || got[0].Value != 7 {
		t.Errorf("adhoc merge wrong: %+v", got[0])
	}
	if got[1].Name != "fgs_b_gauge" || got[1].Value != 9 {
		t.Errorf("gauge last-wins wrong: %+v", got[1])
	}
	if got[2].Name != "fgs_ercache_hits_total" || got[2].Value != 7 {
		t.Errorf("counter sum wrong: %+v", got[2])
	}
}

func TestWriteChromeTrace(t *testing.T) {
	clk := NewFrozen(time.Unix(0, 0))
	tr := NewTrace(clk)
	root := tr.Start("run")
	clk.Advance(2 * time.Millisecond)
	child := root.Child("mine")
	child.SetArg("patterns", 7)
	clk.Advance(3 * time.Millisecond)
	child.End()
	open := root.Child("never-ends")
	_ = open
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(f.TraceEvents) != 2 {
		t.Fatalf("got %d events (open span must be skipped), want 2", len(f.TraceEvents))
	}
	ev := f.TraceEvents[1]
	if ev["name"] != "mine" || ev["ph"] != "X" || ev["ts"] != 2000.0 || ev["dur"] != 3000.0 {
		t.Errorf("mine event wrong: %v", ev)
	}
	args, _ := ev["args"].(map[string]any)
	if args["patterns"] != 7.0 {
		t.Errorf("args wrong: %v", ev["args"])
	}
}

func TestWritePrometheus(t *testing.T) {
	var h Histogram
	h.Observe(3)
	h.Observe(40)
	hv := h.Snapshot()
	metrics := []Metric{
		{Name: "fgs_x_total", Help: "x ops", Kind: KindCounter, Labels: []Label{{Key: "shard", Val: "1"}}, Value: 12},
		{Name: "fgs_x_total", Kind: KindCounter, Labels: []Label{{Key: "shard", Val: "2"}}, Value: 3},
		{Name: "fgs_depth", Help: "queue depth", Kind: KindHistogram, Hist: &hv},
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, metrics); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP fgs_x_total x ops\n",
		"# TYPE fgs_x_total counter\n",
		"fgs_x_total{shard=\"1\"} 12\n",
		"fgs_x_total{shard=\"2\"} 3\n",
		"# TYPE fgs_depth histogram\n",
		"fgs_depth_bucket{le=\"2\"} 0\n",
		"fgs_depth_bucket{le=\"4\"} 1\n",
		"fgs_depth_bucket{le=\"64\"} 2\n",
		"fgs_depth_bucket{le=\"+Inf\"} 2\n",
		"fgs_depth_sum 43\n",
		"fgs_depth_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE for fgs_x_total must appear exactly once.
	if strings.Count(out, "# TYPE fgs_x_total") != 1 {
		t.Errorf("duplicate TYPE header:\n%s", out)
	}
}

func TestPhaseMetrics(t *testing.T) {
	clk := NewFrozen(time.Unix(0, 0))
	tr := NewTrace(clk)
	for i := 0; i < 2; i++ {
		s := tr.Start("mine")
		clk.Advance(time.Second)
		s.End()
	}
	s := tr.Start("select")
	clk.Advance(500 * time.Millisecond)
	s.End()

	got := PhaseMetrics(tr)
	if len(got) != 4 {
		t.Fatalf("got %d metrics, want 4: %+v", len(got), got)
	}
	if got[0].Labels[0].Val != "mine" || got[0].Value != 2.0 {
		t.Errorf("mine seconds wrong: %+v", got[0])
	}
	if got[1].Labels[0].Val != "mine" || got[1].Value != 2 {
		t.Errorf("mine count wrong: %+v", got[1])
	}
	if got[2].Labels[0].Val != "select" || got[2].Value != 0.5 {
		t.Errorf("select seconds wrong: %+v", got[2])
	}
}

func TestFormatTable(t *testing.T) {
	var h Histogram
	h.Observe(4)
	hv := h.Snapshot()
	out := FormatTable([]Metric{
		{Name: "fgs_hits_total", Kind: KindCounter, Labels: []Label{{Key: "shard", Val: "0"}}, Value: 9},
		{Name: "fgs_depth", Kind: KindHistogram, Hist: &hv},
	})
	if !strings.Contains(out, `fgs_hits_total{shard="0"}`) || !strings.Contains(out, "9") {
		t.Errorf("counter row missing:\n%s", out)
	}
	if !strings.Contains(out, "count=1 sum=4 mean=4.00") {
		t.Errorf("histogram row missing:\n%s", out)
	}
}

// TestObserverExport checks the CLIs' end-of-run export: the Chrome trace,
// the Prometheus file with the registry's series and the phase metrics, the
// summary table, and an error for a path that cannot be created.
func TestObserverExport(t *testing.T) {
	o := NewObserver(NewFrozen(time.Unix(0, 0)))
	sp := o.Trace.Start("apxfgs")
	sp.Child("select").End()
	sp.End()
	o.Reg.Add("fgs_test_total", "A test counter.", nil, 3)

	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.txt")
	var table bytes.Buffer
	if err := o.Export(tracePath, metricsPath, &table); err != nil {
		t.Fatal(err)
	}
	for path, wants := range map[string][]string{
		tracePath:   {`"name":"select"`},
		metricsPath: {"fgs_test_total 3", `fgs_phase_spans_total{phase="select"} 1`},
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range wants {
			if !strings.Contains(string(data), want) {
				t.Errorf("%s missing %q:\n%s", filepath.Base(path), want, data)
			}
		}
	}
	if !strings.Contains(table.String(), "fgs_test_total") {
		t.Errorf("summary table missing the counter:\n%s", table.String())
	}
	if err := o.Export(filepath.Join(dir, "missing", "trace.json"), "", nil); err == nil {
		t.Error("Export into a missing directory succeeded")
	}
}
