package main

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	fgs "github.com/cwru-db/fgs"
)

const (
	// warmUp runs load before the timed window opens; its requests are
	// checked but not measured.
	warmUp = 2 * time.Second
	// grace is how long a run waits past the window for in-flight requests
	// before recording them as censored. It equals the summarize latency
	// limit, so a censored request always counts as a limit miss.
	grace = 5 * time.Second
	// traceDrain bounds the wait for in-flight requests before a traced
	// run's replay, so the replay does not share the CPUs with them.
	traceDrain = 60 * time.Second

	summarizeLimit = 5 * time.Second
	otherLimit     = 250 * time.Millisecond

	// stallFactor marks a summarize request as a stall when it takes this
	// many times the run's median.
	stallFactor = 10

	// ingestBatch edges are inserted per write, and the batch sent
	// ingestLag writes earlier is deleted in the same request.
	ingestBatch     = 512
	ingestLag       = 4
	ingestTailShare = 0.01
	// ingestReadRate is the ingest reader's arrival rate.
	ingestReadRate = 20.0

	// Nominal throughputs, used only to fix each workload's tail percentile
	// for its run length (see tailQuantile).
	nominalSummarizePerSec = 2.5
	nominalIngestPerSec    = 20.0

	// summarizeClients is the summarize workload's closed-loop client count.
	summarizeClients = 1
	// crRounds is how many rounds of the summarize sequence summary_cr
	// averages over. Every run completes them (a round takes 2–6 s), and
	// every seed sends the same requests in them, so the figure covers the
	// same requests whatever the seed and however fast the host is.
	crRounds = 3
)

// limit is the latency limit of a request's endpoint.
func limit(c *call) time.Duration {
	if isSummarize(c) {
		return summarizeLimit
	}
	return otherLimit
}

func isSummarize(c *call) bool { return c.class == "summarize" || c.class == "summarize-k" }

// --- engine --------------------------------------------------------------------

// bootSpec describes one engine boot.
type bootSpec struct {
	graph  func() *fgs.Graph
	groups groupSpec
	// store puts fgstore under the engine, as fgsd -data-dir does.
	store bool
	// traced attaches an observer with a span trace (ServerConfig.Obs).
	traced  bool
	scratch string
}

// engine is one booted serving engine.
type engine struct {
	srv    *fgs.Server
	h      http.Handler
	g      *fgs.Graph // owned by the engine after boot
	groups *fgs.Groups
	store  *fgs.Store
	dir    string
	obs    *fgs.Observer // non-nil on traced engines
	obsT0  time.Time     // when obs's trace epoch started
	writes *writeGen     // non-nil when the spec asked for one
	// writesMB is the heap the write generator holds, which peak_heap_mb
	// leaves out.
	writesMB float64
	setup    time.Duration // input generation + store open + NewServer
	gen      time.Duration // input generation alone
	// size of the input graph, read before the engine took it over
	nodes, edges, edgeIDBound int
}

// prov describes the engine's input for the result's provenance.
func (e *engine) prov(gs groupSpec, tailQ float64) provenance {
	p := provenance{Nodes: e.nodes, Edges: e.edges, EdgeIDBound: e.edgeIDBound, Groups: gs.String(), TailQ: tailName(tailQ)}
	if e.store != nil {
		p.Fsync, p.DataFS = fgs.FsyncGroup, statfsName(e.dir)
	}
	return p
}

// The engine's default summary parameters, fgsd's: the summary it maintains
// under writes has these.
const (
	engineR       = 2
	engineN       = 20
	engineUtility = "coverage"
)

// serverConfig is fgsd's flag defaults: workers = GOMAXPROCS, queue 4×
// workers, cache 256, deadline 30s, mvcc reads, shards off, tracing and the
// flight recorder on, slow-request threshold 10s, snapshot every 256
// batches. Logs and flight dumps are formatted as fgsd formats them and
// then discarded.
func serverConfig(o *fgs.Observer, st *fgs.Store, rec *fgs.StoreRecovered) fgs.ServerConfig {
	return fgs.ServerConfig{
		R:             engineR,
		N:             engineN,
		Utility:       engineUtility,
		Workers:       runtime.GOMAXPROCS(0),
		CacheEntries:  256,
		Deadline:      30 * time.Second,
		ReadMode:      "mvcc",
		Obs:           o,
		FlightEvents:  1024,
		SlowRequest:   10 * time.Second,
		Log:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		FlightDump:    io.Discard,
		Store:         st,
		Resume:        rec,
		SnapshotEvery: 256,
	}
}

// boot generates the input and boots an engine over it. A write generator,
// when wanted, is built between generation and boot — it is the benchmark's
// input, not the engine's set-up, so its time is excluded, and the heap it
// holds is measured so peak_heap_mb can leave it out.
func boot(b bootSpec, writes func(*fgs.Graph) *writeGen) (*engine, error) {
	t0 := time.Now()
	g := b.graph()
	e := &engine{g: g, gen: time.Since(t0), nodes: g.NumNodes(), edges: g.NumEdges(), edgeIDBound: g.EdgeIDBound()}
	groups, err := b.groups.build(g)
	if err != nil {
		return nil, fmt.Errorf("groups: %w", err)
	}
	e.groups = groups
	excluded := time.Duration(0)
	if writes != nil {
		w0 := time.Now()
		before := liveHeap()
		e.writes = writes(g)
		e.writesMB = float64(liveHeap()-before) / (1 << 20)
		excluded = time.Since(w0)
	}
	var rec *fgs.StoreRecovered
	if b.store {
		dir, err := os.MkdirTemp(b.scratch, "ingest-data-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		e.store, rec, err = fgs.OpenStore(fgs.StoreOptions{Dir: dir, Fsync: fgs.FsyncGroup, SegmentBytes: 64 << 20})
		if err != nil {
			e.remove()
			return nil, fmt.Errorf("open store: %w", err)
		}
	}
	if b.traced {
		e.obs = fgs.NewObserver(nil)
		e.obsT0 = time.Now()
	}
	e.srv, err = fgs.NewServer(g, groups, serverConfig(e.obs, e.store, rec))
	if err != nil {
		e.close()
		e.remove()
		return nil, fmt.Errorf("boot: %w", err)
	}
	e.setup = time.Since(t0) - excluded
	e.h = e.srv.Handler()
	return e, nil
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// close drains the engine, waits for its background snapshots and takes the
// final one, as fgsd does on shutdown. The data directory stays until
// remove, so the gate can read the final snapshot back.
func (e *engine) close() {
	if e.srv != nil {
		e.srv.StartDrain()
		if e.store != nil {
			if err := e.srv.FinalSnapshot(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: final snapshot:", err)
			}
		}
	}
	if e.store != nil {
		if err := e.store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close store:", err)
		}
	}
}

// remove deletes the engine's data directory.
func (e *engine) remove() {
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// bootMany boots n engines one after another, keeping only the last, and
// returns it with the median set-up time. Several boots make setup_s a
// median rather than one sample.
func bootMany(n int, b bootSpec, writes func(*fgs.Graph) *writeGen) (*engine, float64, float64, error) {
	var setups, gens []float64
	var e *engine
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
			e.remove()
			e = nil
			runtime.GC()
		}
		var err error
		var w func(*fgs.Graph) *writeGen
		if i == n-1 {
			w = writes
		}
		if e, err = boot(b, w); err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, e.setup.Seconds())
		gens = append(gens, e.gen.Seconds())
		logf("boot %d/%d: set-up %v", i+1, n, e.setup.Round(time.Millisecond))
	}
	return e, median(setups), median(gens), nil
}

// --- measuring -----------------------------------------------------------------

// measured is one timed window's raw material.
type measured struct {
	win    window
	calls  []*call // every call, warm-up included; censored ones as copies
	peakMB float64
	lag    *lagLog
	gc     gcUse // the Go runtime's collector over the window
}

// inWindow returns the calls due inside the timed window.
func (m *measured) inWindow() []*call {
	var out []*call
	for _, c := range m.calls {
		if !c.warm {
			out = append(out, c)
		}
	}
	return out
}

// drive starts the load with start(), waits out the window and the grace
// period (or drain, when longer), and collects the calls.
func drive(span time.Duration, drain time.Duration, start func(w window, col *collector, lag *lagLog)) *measured {
	runtime.GC()
	now := time.Now()
	w := window{start: now.Add(warmUp), end: now.Add(warmUp + span)}
	col := newCollector()
	lag := &lagLog{}
	peak := startHeapPeak(50 * time.Millisecond)
	start(w, col, lag)
	time.Sleep(time.Until(w.start))
	gc0 := readGC()
	time.Sleep(time.Until(w.end))
	gc := readGC().since(gc0)
	peakMB := peak.end()
	col.awaitDrain(w.end.Add(drain))
	return &measured{win: w, calls: col.close(time.Now()), peakMB: peakMB, lag: lag, gc: gc}
}

// e2e computes the end-to-end metrics shared by every workload. headline
// holds the latencies of the workload's headline class, workPerS its work
// rate, and cr its summary quality, C_r. The headline tail is not among
// them: it is a detail line, ungated (README.md, "End-to-end metrics").
func e2e(m *measured, setupS float64, headline []time.Duration, workPerS, cr float64) ([]metric, int, int) {
	attempted, failed, missed := 0, 0, 0
	for _, c := range m.inWindow() {
		attempted++
		f, _ := failedStatus(c)
		if f {
			failed++
		}
		if f || c.latency() > limit(c) {
			missed++
		}
	}
	return []metric{
		{"setup_s", "s", setupS},
		{"p50_ms", "ms", quantileMs(headline, 0.5)},
		{"work_per_s", "1/s", workPerS},
		{"ok_pct", "%", 100 * ratio(float64(attempted-failed), float64(attempted))},
		{"slo_met_pct", "%", 100 * ratio(float64(attempted-missed), float64(attempted))},
		{"peak_heap_mb", "MB", m.peakMB},
		{"summary_cr", "ratio", cr},
	}, attempted, failed
}

// gcDetails reports the collector's work over the window, for reading a
// run's figures against it.
func gcDetails(m *measured) []metric {
	return []metric{
		{"gc_cycles", "count", float64(m.gc.cycles)},
		{"gc_cpu_pct", "%", m.gc.cpuPct()},
	}
}

// classLatency reports p50 and tail of one request class, for the detail
// lines; tailQ <= 0 picks the tail from the class's own sample count.
func classLatency(calls []*call, name string, keep func(*call) bool, tailQ float64) []metric {
	lat := latencies(calls, keep)
	if tailQ <= 0 {
		tailQ = tailQuantile(len(lat))
	}
	return []metric{
		{name + "_p50_ms", "ms", quantileMs(lat, 0.5)},
		{fmt.Sprintf("%s_tail_ms(p%g)", name, tailQ*100), "ms", quantileMs(lat, tailQ)},
		{name + "_count", "requests", float64(len(lat))},
	}
}

// stalls counts summarize requests slower than stallFactor times the
// window's summarize median.
func stalls(calls []*call) int {
	var lat []time.Duration
	for _, c := range calls {
		if isSummarize(c) {
			lat = append(lat, c.latency())
		}
	}
	med := quantileMs(lat, 0.5)
	n := 0
	for _, d := range lat {
		if ms(d) > stallFactor*med {
			n++
		}
	}
	return n
}

func tailName(q float64) string { return fmt.Sprintf("p%g", q*100) }

// --- summarize -----------------------------------------------------------------

// runSummarize drives the compute path: one closed-loop client sending
// distinct summarize and summarize-k requests over the 200k-node graph with
// its rare-label tail, to an engine at fgsd's default concurrency (mining
// Workers = GOMAXPROCS). No writes, no store; every request misses the
// result cache.
//
// One client, not GOMAXPROCS of them: two concurrent scale-graph summaries
// at Workers=2 can stall each other for 30–50 s (README.md, "Known
// defects"), which left most two-client runs with a handful of samples and
// no metric within its bound. Traced runs still fire the stalling pair.
func runSummarize(cfg runConfig) (*outcome, error) {
	spec := bootSpec{graph: scaleGraph, groups: scaleGroups, scratch: cfg.scratch}
	setups := 3
	var writes func(*fgs.Graph) *writeGen
	if cfg.traced {
		// The traced run also drives the write path after its window (see
		// writeProbe), so its engine gets fgstore and an observer; neither
		// is on the path a summarize request takes.
		setups = 1
		spec.store, spec.traced = true, true
		writes = ingestWrites(cfg.seed)
	}
	e, setupS, genS, err := bootMany(setups, spec, writes)
	if err != nil {
		return nil, err
	}
	span := cfg.window
	if cfg.traced {
		span /= 2
	}
	seq := summarizeSeq(cfg.seed)
	var mu sync.Mutex
	next := 0
	take := func() *call {
		mu.Lock()
		defer mu.Unlock()
		if next == len(seq) {
			return nil
		}
		c := seq[next]
		next++
		return c
	}
	// A client that finds the sequence spent stops, and the window's figures
	// would then measure the sequence's length rather than the engine.
	spent := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return next == len(seq)
	}
	drain := grace
	if cfg.traced {
		drain = traceDrain
	}
	m := drive(span, drain, func(w window, col *collector, lag *lagLog) {
		closedLoop(e.h, summarizeClients, take, w, col, lag)
	})
	tailQ := tailQuantile(int(nominalSummarizePerSec * span.Seconds()))

	// The gate checks against a copy built after the window, so it does not
	// count toward the window's heap.
	g0 := time.Now()
	copyG := scaleGraph()
	out := &outcome{}
	rep := &gateReport{}
	checkStatuses(m.calls, rep)
	verifySummaries(copyG, e.groups, m.calls, rep)
	if spent() {
		rep.fail("all %d summarize requests were sent before the window closed; lengthen the sequence (summarizeRounds)", len(seq))
	}
	logf("gate: %d summaries verified in %v", rep.verified(), time.Since(g0).Round(time.Millisecond))
	win := m.inWindow()
	sample, perS := roundSample(m, seq)
	out.metrics, out.attempted, out.failed = e2e(m, setupS, latencies(sample, isSummarize), perS, rep.summaryCR(seq[:crRounds*summarizeRound]))
	out.details = append(out.details, classLatency(sample, "summarize", isSummarize, tailQ)...)
	out.details = append(out.details, gcDetails(m)...)
	out.details = append(out.details,
		metric{"whole_rounds", "count", float64(len(wholeRounds(m, seq)) / summarizeRound)},
		metric{"verified_summaries", "count", float64(rep.verified())},
		metric{"stalls(>10x median)", "count", float64(stalls(win))},
		metric{"censored", "count", float64(countCensored(win))},
	)
	out.prov = e.prov(scaleGroups, tailQ)
	if cfg.traced {
		lm := newLayerMetrics()
		lm.server(win, isSummarize)
		lm.bench(m, win)
		lm.set("graph.generate_s", genS)
		over, err := lm.replaySummaries(copyG, e.groups, win, summarizeClients, span)
		if err != nil {
			return nil, err
		}
		lm.set("bench.trace_overhead_pct", over)
		checkStatuses(writeProbe(lm, e), rep)
		if err := lm.graphOps(copyG, cfg.seed); err != nil {
			return nil, err
		}
		if err := lm.spans.writeTrace(traceFile(cfg)); err != nil {
			return nil, err
		}
		// Last, because a stalled pair keeps both CPUs busy until exit.
		lm.set("bench.pair_probe_ms", pairProbe(copyG, e.groups, pairProbeCap))
		out.metrics = lm.list()
	} else {
		e.close()
		e.remove()
	}
	finishGate(out, rep)
	return out, nil
}

// wholeRounds returns the requests of the rounds of seq that the window
// holds whole: every request of the round was due inside it and completed.
// Each such round sends every shape once, so figures over them do not depend
// on which shapes the window's ragged first and last rounds happened to
// catch, which the seeded order decides. It returns nil when no round fits.
func wholeRounds(m *measured, seq []*call) []*call {
	finished := map[*call]bool{}
	for _, c := range m.calls {
		if !c.censored && !c.warm {
			finished[c] = true
		}
	}
	var out []*call
	for r := 0; (r+1)*summarizeRound <= len(seq); r++ {
		round := seq[r*summarizeRound : (r+1)*summarizeRound]
		whole := true
		for _, c := range round {
			whole = whole && finished[c]
		}
		if whole {
			out = append(out, round...)
		}
	}
	return out
}

// roundSample returns the summarize workload's headline sample and work
// rate. The sample is the rounds the window holds whole, and the rate their
// requests over the time from the first one's due instant to the last one's
// answer. When no round fits, the sample is every request in the window and
// the rate the summaries completed in it over its length.
func roundSample(m *measured, seq []*call) ([]*call, float64) {
	sample := wholeRounds(m, seq)
	if len(sample) == 0 {
		win := m.inWindow()
		n := 0
		for _, c := range win {
			if !c.censored && c.status == http.StatusOK {
				n++
			}
		}
		return win, float64(n) / m.win.end.Sub(m.win.start).Seconds()
	}
	first, last := sample[0].due, sample[0].done
	for _, c := range sample {
		if c.due.Before(first) {
			first = c.due
		}
		if c.done.After(last) {
			last = c.done
		}
	}
	return sample, float64(len(sample)) / last.Sub(first).Seconds()
}

// probeBatches is how many write batches a traced summarize run sends after
// its window, so the write path's layers are timed on the scale graph even
// though the summarize load never writes.
const probeBatches = 24

// writeProbe sends probeBatches ingest-sized batches through the engine,
// one after another, then closes the engine, whose final snapshot times the
// store's snapshot path. It reports MVCC publish, fgstore and the
// maintainer's apply phases from them, and returns the calls for the gate.
func writeProbe(lm *layerMetrics, e *engine) []*call {
	before := gather(e.obs.Reg)
	since := time.Since(e.obsT0)
	var calls []*call
	applied := 0.0
	next := writer(e.writes, ingestBatch)
	for i := 0; i < probeBatches; i++ {
		c := next()
		c.due = time.Now()
		serve(e.h, c)
		calls = append(calls, c)
		if c.status == http.StatusOK {
			applied += float64(c.changes)
		}
	}
	e.close()
	e.remove()
	delta := gather(e.obs.Reg).since(before)
	lm.serving(delta, applied)
	lm.applyPhases(e.obs.Trace, since, float64(len(calls)))
	lm.set("submod.stream.decisions", ratio(delta.v["fgs_stream_decisions_total"], float64(len(calls))))
	return calls
}

// probeSummaries is how many summaries a traced ingest run replays after
// its window to time the batch algorithms its load never runs.
const probeSummaries = 6

// pairProbeCap bounds the wait for the stall reproducer: a healthy pair
// finishes in about 2 s, a stalled one takes 40–50 s.
const pairProbeCap = 15 * time.Second

// pairProbe runs the concurrency-stall reproducer: APXFGS and k-APXFGS at
// r=2, n=8 over coverage:corev, concurrently, each at fgsd's default
// Workers. It returns the slower run's time in ms, or the cap when either
// is still running then (the runs cannot be cancelled and are abandoned).
func pairProbe(g *fgs.Graph, groups *fgs.Groups, capAt time.Duration) float64 {
	done := make(chan time.Duration, 2)
	start := time.Now()
	for _, k := range []int{0, 2} {
		go func(k int) {
			// The spec is a constant the constructor accepts, and the probe
			// times the runs; their summaries are not needed.
			util, _ := buildUtility(g, "coverage:corev")
			cfg := fgs.Config{R: 2, K: k, N: 8, Workers: runtime.GOMAXPROCS(0)}
			if k > 0 {
				_, _ = fgs.SummarizeK(g, groups, util, cfg)
			} else {
				_, _ = fgs.Summarize(g, groups, util, cfg)
			}
			done <- time.Since(start)
		}(k)
	}
	timeout := time.After(capAt)
	var slowest time.Duration
	for i := 0; i < 2; i++ {
		select {
		case d := <-done:
			slowest = d
		case <-timeout:
			return ms(capAt)
		}
	}
	return ms(slowest)
}

func countCensored(calls []*call) int {
	n := 0
	for _, c := range calls {
		if c.censored {
			n++
		}
	}
	return n
}

// finishGate folds the gate's verdict into the outcome.
func finishGate(out *outcome, rep *gateReport) {
	out.correct = rep.ok()
	out.notes = append(out.notes, rep.problems...)
}

// latencies returns the latencies of the calls of one class that did not
// fail.
func latencies(calls []*call, class func(*call) bool) []time.Duration {
	var out []time.Duration
	for _, c := range calls {
		if f, _ := failedStatus(c); class(c) && !f {
			out = append(out, c.latency())
		}
	}
	return out
}

// traceFile is where a traced run writes its request spans.
func traceFile(cfg runConfig) string {
	return filepath.Join(cfg.scratch, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}

// --- ingest --------------------------------------------------------------------

// ingestSetups is how many engines an untraced ingest run boots for setup_s.
const ingestSetups = 3

func ingestSpec(cfg runConfig, traced bool) bootSpec {
	return bootSpec{graph: scaleGraph, groups: scaleGroups, store: true, traced: traced, scratch: cfg.scratch}
}

func ingestWrites(seed int64) func(*fgs.Graph) *writeGen {
	return func(g *fgs.Graph) *writeGen { return newWriteGen(g, seed, ingestTailShare, ingestLag) }
}

// runIngest drives the write path on the summarize graph with fgstore on:
// one closed-loop writer sending 512-edge insert batches that also delete
// the batch sent four writes earlier, and one open-loop reader. After the
// window the engine takes its final snapshot, and the summary it maintained
// through the writes is read back from it and checked.
func runIngest(cfg runConfig) (*outcome, error) {
	if cfg.traced {
		return tracedIngest(cfg)
	}
	e, setupS, _, err := bootMany(ingestSetups, ingestSpec(cfg, false), ingestWrites(cfg.seed))
	if err != nil {
		return nil, err
	}
	defer e.remove()
	m := ingestLoad(cfg.seed, e, cfg.window)
	e.close()
	rep := &gateReport{}
	checkStatuses(m.calls, rep)
	cr := checkMaintained(e.dir, scaleGroups, rep)
	win := m.inWindow()
	tailQ := ingestTail(cfg.window)
	out := &outcome{prov: e.prov(scaleGroups, tailQ)}
	out.metrics, out.attempted, out.failed = e2e(m, setupS, latencies(win, isUpdate), float64(appliedEdges(win))/m.win.end.Sub(m.win.start).Seconds(), cr)
	out.details = ingestDetails(m, win, tailQ)
	out.details = append(out.details, metric{"write_index_mb", "MB", e.writesMB})
	finishGate(out, rep)
	return out, nil
}

// tracedIngest runs the workload twice on fresh engines, each for half the
// window: first untraced, then with ServerConfig.Obs carrying a span trace,
// which picks up the maintainer's phase spans and the MVCC and fgstore
// histograms. Per-layer metrics come from the traced half; the trace
// overhead is the change in the update median between the halves. The load
// sends no summaries, so the batch algorithms' phases come from replaying a
// few summarize requests on the benchmark's graph copy.
func tracedIngest(cfg runConfig) (*outcome, error) {
	half := cfg.window / 2
	rep := &gateReport{}
	e, err := boot(ingestSpec(cfg, false), ingestWrites(cfg.seed))
	if err != nil {
		return nil, err
	}
	m0 := ingestLoad(cfg.seed, e, half)
	e.close()
	e.remove()
	checkStatuses(m0.calls, rep)
	runtime.GC()

	t, err := boot(ingestSpec(cfg, true), ingestWrites(cfg.seed))
	if err != nil {
		return nil, err
	}
	defer t.remove()
	before := gather(t.obs.Reg)
	m1 := ingestLoad(cfg.seed, t, half)
	delta := gather(t.obs.Reg).since(before)
	loadStart := m1.win.start.Add(-warmUp).Sub(t.obsT0)
	t.close()
	checkStatuses(m1.calls, rep)
	checkMaintained(t.dir, scaleGroups, rep)

	tailQ := ingestTail(half)
	out := &outcome{prov: t.prov(scaleGroups, tailQ)}
	lm := newLayerMetrics()
	win := m1.inWindow()
	lm.server(win, isUpdate)
	lm.bench(m1, win)
	updates, applied := 0.0, 0.0
	for _, c := range m1.calls {
		if c.class == "update" && !c.censored && c.status == http.StatusOK {
			updates++
			applied += float64(c.changes)
		}
	}
	lm.serving(delta, applied)
	lm.applyPhases(t.obs.Trace, loadStart, updates)
	// The mining and matcher counters are the maintainer's, per applied
	// update.
	lm.algorithm(delta, updates)
	copyG := scaleGraph()
	rp := newReplay()
	for _, c := range summarizeSeq(cfg.seed)[:probeSummaries] {
		if err := rp.one(copyG, t.groups, c); err != nil {
			return nil, err
		}
	}
	rp.report(lm)
	lm.set("graph.generate_s", t.gen.Seconds())
	if err := lm.graphOps(copyG, cfg.seed); err != nil {
		return nil, err
	}
	base := quantileMs(latencies(m0.inWindow(), isUpdate), 0.5)
	lm.set("bench.trace_overhead_pct", 100*ratio(quantileMs(latencies(win, isUpdate), 0.5)-base, base))
	if err := lm.spans.writeTrace(traceFile(cfg)); err != nil {
		return nil, err
	}
	lm.set("bench.pair_probe_ms", pairProbe(copyG, t.groups, pairProbeCap))
	out.metrics = lm.list()
	for _, m := range []*measured{m0, m1} {
		_, a, f := e2e(m, 0, nil, 0, 0)
		out.attempted += a
		out.failed += f
	}
	out.details = ingestDetails(m1, win, tailQ)
	finishGate(out, rep)
	return out, nil
}

func isUpdate(c *call) bool { return c.class == "update" }

// appliedEdges sums the edges the window's acknowledged updates changed.
func appliedEdges(calls []*call) int {
	n := 0
	for _, c := range calls {
		if c.class == "update" && !c.censored && c.status == http.StatusOK {
			n += c.changes
		}
	}
	return n
}

func ingestTail(span time.Duration) float64 {
	return tailQuantile(int(nominalIngestPerSec * span.Seconds()))
}

// ingestLoad runs the reader and the writer over one window. The heap the
// write generator holds is left out of the window's peak.
func ingestLoad(seed int64, e *engine, span time.Duration) *measured {
	m := drive(span, grace, func(w window, col *collector, lag *lagLog) {
		openLoop(e.h, ingestReads(seed, w.start.Add(-warmUp), warmUp+span, w.start), col, lag)
		closedLoop(e.h, 1, writer(e.writes, ingestBatch), w, col, &lagLog{})
	})
	m.peakMB -= e.writesMB
	return m
}

// ingestReads is the ingest reader's open-loop schedule over span (warm-up
// included): Poisson arrivals at ingestReadRate, one in five a stats call
// and the rest views over distinct city-literal patterns, so every view
// misses the result cache.
func ingestReads(seed int64, start time.Time, span time.Duration, warmEnd time.Time) []*call {
	rng := rand.New(rand.NewSource(seed + 2))
	cities := cityViewPatterns(rng, scaleGraphCities)
	kinds := newDeck(rng, map[string]int{"stats": 1, "view": 4})
	var out []*call
	for i, off := range arrivals(rng, ingestReadRate, span) {
		var c *call
		if kinds.deal() == "stats" {
			c = statsCall()
		} else {
			c = viewCall(cities[i%len(cities)])
		}
		c.due = start.Add(off)
		c.warm = c.due.Before(warmEnd)
		out = append(out, c)
	}
	return out
}

func ingestDetails(m *measured, win []*call, tailQ float64) []metric {
	var out []metric
	out = append(out, classLatency(win, "update", isUpdate, tailQ)...)
	out = append(out, classLatency(win, "view", func(c *call) bool { return c.class == "view" }, 0)...)
	out = append(out, metric{"ingest_edges_per_s", "edges/s", float64(appliedEdges(win)) / m.win.end.Sub(m.win.start).Seconds()})
	return append(out, gcDetails(m)...)
}

// scaleGraphCities is the city cardinality of the scale graph: the sized
// generator gives every 256 users a city, and 1 node in 26 is an org.
const scaleGraphCities = (scaleNodes - scaleNodes/26) / 256
