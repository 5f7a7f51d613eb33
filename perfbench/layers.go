package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	fgs "github.com/cwru-db/fgs"
	"github.com/cwru-db/fgs/internal/obs"
)

// Per-layer metrics, reported by traced runs. Each layer is measured from
// outside: by the Server-Timing stages the engine already returns, by the
// counters its layers already export into an obs registry, and by timing
// calls into a layer's public functions on the benchmark's own graph copy.
// Every time below is measured on every workload in BENCHMARK.json: where a
// workload's load leaves a layer idle, the traced run drives that layer
// after the window (README.md, "Per-layer metrics"). Counts may read 0.
//
// layerNames fixes the report order and units.
var layerNames = []struct{ name, unit string }{
	{"server.cache.hit_ratio", "ratio"},
	{"server.cache_us", "us"},
	{"server.admission.wait_us", "us"},
	{"server.admission.refused_pct", "%"},
	{"server.compute_ms", "ms"},
	{"server.encode_us", "us"},
	{"server.shell_us", "us"},
	{"server.pin_us", "us"},
	{"server.mvcc.publish_us", "us"},
	{"server.mvcc.writer_waits", "count"},
	{"core.select_ms", "ms"},
	{"core.mine_ms", "ms"},
	{"core.cover_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"core.apply.select_ms", "ms"},
	{"core.apply.cover_ms", "ms"},
	{"core.queryview_us", "us"},
	{"core.summary_cr", "ratio"},
	{"mining.candidates", "count"},
	{"mining.pruned", "count"},
	{"mining.spec_discards", "count"},
	{"mining.useful_ratio", "ratio"},
	{"mining.ercache.hit_ratio", "ratio"},
	{"mining.ercache.misses", "count"},
	{"mining.ercache.evictions", "count"},
	{"pattern.searches", "count"},
	{"pattern.expansions", "count"},
	{"pattern.embeddings", "count"},
	{"pattern.expansions_per_search", "ratio"},
	{"submod.fairselect.heap_pops", "count"},
	{"submod.stream.decisions", "count"},
	{"graph.generate_s", "s"},
	{"graph.clone_ms", "ms"},
	{"graph.mutate_us_per_edge", "us"},
	{"graph.rhop_ms", "ms"},
	{"graph.edge_id_bound", "count"},
	{"store.wal.fsync_us", "us"},
	{"store.wal.appends_per_fsync", "ratio"},
	{"store.wal.bytes_per_edge", "bytes"},
	{"store.snapshot_ms", "ms"},
	{"store.snapshots", "count"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.gen_lag_ms", "ms"},
	{"bench.summarize_stalls", "count"},
	{"bench.pair_probe_ms", "ms"},
}

// layerMetrics accumulates per-layer values by name.
type layerMetrics struct {
	vals  map[string]float64
	spans *spanLog
}

func newLayerMetrics() *layerMetrics {
	return &layerMetrics{vals: map[string]float64{}, spans: &spanLog{}}
}

func (lm *layerMetrics) set(name string, v float64) { lm.vals[name] = v }

// list returns every per-layer metric in report order; unset ones are 0.
func (lm *layerMetrics) list() []metric {
	out := make([]metric, 0, len(layerNames))
	for _, l := range layerNames {
		out = append(out, metric{l.name, l.unit, lm.vals[l.name]})
	}
	return out
}

// stageNames are the engine's Server-Timing stages, in pipeline order.
var stageNames = []string{"cache", "admission", "pin", "partition", "compute", "encode"}

// server derives the serving layer's metrics from the Server-Timing stages
// of the window's responses, and records one span per ServeHTTP call with
// its stages as children. Stage times are means: Server-Timing has
// microsecond resolution, and the short stages' medians would sit on one
// tick. compute, encode and the shell are the headline class's.
func (lm *layerMetrics) server(win []*call, headline func(*call) bool) {
	var cacheProbe, admission, pin, compute, encode, shell []float64
	hits, cacheable, refused, admitted := 0, 0, 0, 0
	for _, c := range win {
		if c.censored {
			continue
		}
		lm.spans.add(c)
		if d, ok := c.stages["cache"]; ok {
			cacheProbe = append(cacheProbe, us(d))
			cacheable++
			if c.cacheHit {
				hits++
			}
		}
		if d, ok := c.stages["pin"]; ok {
			pin = append(pin, us(d))
		}
		if d, ok := c.stages["admission"]; ok {
			admission = append(admission, us(d))
			admitted++
		} else if c.status == http.StatusServiceUnavailable {
			admitted++
			refused++
		}
		if !headline(c) || c.status != http.StatusOK {
			continue
		}
		var sum time.Duration
		for _, name := range stageNames {
			sum += c.stages[name]
		}
		compute = append(compute, ms(c.stages["compute"]))
		encode = append(encode, us(c.stages["encode"]))
		shell = append(shell, us(c.done.Sub(c.sent)-sum))
	}
	lm.set("server.cache.hit_ratio", ratio(float64(hits), float64(cacheable)))
	lm.set("server.cache_us", mean(cacheProbe))
	lm.set("server.admission.wait_us", mean(admission))
	lm.set("server.admission.refused_pct", 100*ratio(float64(refused), float64(admitted)))
	lm.set("server.compute_ms", mean(compute))
	lm.set("server.encode_us", mean(encode))
	lm.set("server.shell_us", mean(shell))
	lm.set("server.pin_us", mean(pin))
}

// bench records the benchmark's own validity numbers.
func (lm *layerMetrics) bench(m *measured, win []*call) {
	lm.set("bench.gen_lag_ms", m.lag.p99Ms())
	lm.set("bench.summarize_stalls", float64(stalls(win)))
}

// counters sums a registry snapshot by series name (labels merged) and
// keeps histograms' sums and counts.
type counters struct {
	v          map[string]float64
	hsum, hcnt map[string]float64
}

func gather(reg *fgs.MetricRegistry) counters {
	c := counters{v: map[string]float64{}, hsum: map[string]float64{}, hcnt: map[string]float64{}}
	for _, m := range reg.Gather() {
		if m.Hist != nil {
			c.hsum[m.Name] += float64(m.Hist.Sum)
			c.hcnt[m.Name] += float64(m.Hist.Count)
			continue
		}
		c.v[m.Name] += m.Value
	}
	return c
}

// since returns the counters accumulated after base was taken.
func (c counters) since(base counters) counters {
	out := counters{v: map[string]float64{}, hsum: map[string]float64{}, hcnt: map[string]float64{}}
	for k, x := range c.v {
		out.v[k] = x - base.v[k]
	}
	for k, x := range c.hsum {
		out.hsum[k] = x - base.hsum[k]
	}
	for k, x := range c.hcnt {
		out.hcnt[k] = x - base.hcnt[k]
	}
	return out
}

func (c counters) histMean(name string) float64 { return ratio(c.hsum[name], c.hcnt[name]) }

// algorithm derives the mining, matcher and selection metrics from
// counters accumulated over runs algorithm runs.
func (lm *layerMetrics) algorithm(c counters, runs float64) {
	cand, pruned, spec := c.v["fgs_mining_candidates_total"], c.v["fgs_mining_pruned_total"], c.v["fgs_mining_spec_discards_total"]
	lm.set("mining.candidates", ratio(cand, runs))
	lm.set("mining.pruned", ratio(pruned, runs))
	lm.set("mining.spec_discards", ratio(spec, runs))
	lm.set("mining.useful_ratio", ratio(cand, cand+pruned+spec))
	hits, misses := c.v["fgs_ercache_hits_total"], c.v["fgs_ercache_misses_total"]
	lm.set("mining.ercache.hit_ratio", ratio(hits, hits+misses))
	lm.set("mining.ercache.misses", ratio(misses, runs))
	lm.set("mining.ercache.evictions", ratio(c.v["fgs_ercache_evictions_total"], runs))
	searches, exp := c.v["fgs_match_searches_total"], c.v["fgs_match_expansions_total"]
	lm.set("pattern.searches", ratio(searches, runs))
	lm.set("pattern.expansions", ratio(exp, runs))
	lm.set("pattern.embeddings", ratio(c.v["fgs_match_embeddings_total"], runs))
	lm.set("pattern.expansions_per_search", ratio(exp, searches))
	lm.set("submod.fairselect.heap_pops", ratio(c.v["fgs_fairselect_heap_pops_total"], runs))
	lm.set("submod.stream.decisions", ratio(c.v["fgs_stream_decisions_total"], runs))
}

// serving derives the MVCC and store metrics from an engine's counters.
func (lm *layerMetrics) serving(c counters, appliedEdges float64) {
	lm.set("server.mvcc.publish_us", c.histMean("fgs_server_mvcc_publish_us"))
	lm.set("server.mvcc.writer_waits", c.v["fgs_server_mvcc_writer_waits_total"])
	lm.set("store.wal.fsync_us", c.histMean("fgs_store_wal_fsync_us"))
	lm.set("store.wal.appends_per_fsync", ratio(c.v["fgs_store_wal_appends_total"], c.v["fgs_store_wal_fsyncs_total"]))
	lm.set("store.wal.bytes_per_edge", ratio(c.v["fgs_store_wal_bytes_total"], appliedEdges))
	lm.set("store.snapshot_ms", c.histMean("fgs_store_snapshot_us")/1000)
	lm.set("store.snapshots", c.v["fgs_store_snapshots_total"])
}

// replay reruns summarize requests through the library on the benchmark's
// graph copy with an observer attached — the phases and the matcher,
// mining and E_v^r counters of a traced summarize come from here.
type replay struct {
	o      *fgs.Observer
	mu     sync.Mutex
	phases map[string][]float64 // ms per run, by phase
	calls  []time.Duration      // whole library call per run
	cr     []float64            // C_r per run
	runs   float64
}

func newReplay() *replay { return &replay{o: fgs.NewObserver(nil), phases: map[string][]float64{}} }

// one replays c against g. It is safe for concurrent use.
func (rp *replay) one(g *fgs.Graph, groups *fgs.Groups, c *call) error {
	util, err := buildUtility(g, c.utility)
	if err != nil {
		return err
	}
	cfg := fgs.Config{R: c.r, K: c.k, N: c.n, Workers: runtime.GOMAXPROCS(0), Obs: rp.o}
	t0 := time.Now()
	var s *fgs.Summary
	if c.class == "summarize-k" {
		s, err = fgs.SummarizeK(g, groups, util, cfg)
	} else {
		s, err = fgs.Summarize(g, groups, util, cfg)
	}
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("replay %s %s: %w", c.class, c.body, err)
	}
	structure := 0
	for _, pi := range s.Patterns {
		structure += pi.P.Size()
	}
	cr := fgs.CompressionRatio(g, s.R, s.Covered, structure, s.Corrections.Len())
	var views []float64
	for _, p := range sharedViewPatterns {
		pat, err := fgs.ParsePatternString(p)
		if err != nil {
			return err
		}
		q0 := time.Now()
		fgs.QueryView(g, s, pat, 0)
		views = append(views, us(time.Since(q0)))
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.runs++
	rp.calls = append(rp.calls, d)
	rp.phases["select"] = append(rp.phases["select"], ms(s.Stats.SelectTime()))
	rp.phases["mine"] = append(rp.phases["mine"], ms(s.Stats.MineTime()))
	rp.phases["cover"] = append(rp.phases["cover"], ms(s.Stats.SummarizeTime()))
	rp.phases["assemble"] = append(rp.phases["assemble"], ms(d-s.Stats.Total()))
	rp.phases["queryview"] = append(rp.phases["queryview"], views...)
	rp.cr = append(rp.cr, cr)
	return nil
}

// report stores the replay's phase means, view cost and summary quality.
// The mining, matcher and selection counters are in rp.o's registry; the
// caller decides whether they stand for the workload (see lm.algorithm).
func (rp *replay) report(lm *layerMetrics) {
	lm.set("core.select_ms", mean(rp.phases["select"]))
	lm.set("core.mine_ms", mean(rp.phases["mine"]))
	lm.set("core.cover_ms", mean(rp.phases["cover"]))
	lm.set("core.assemble_ms", mean(rp.phases["assemble"]))
	lm.set("core.queryview_us", mean(rp.phases["queryview"]))
	lm.set("core.summary_cr", mean(rp.cr))
}

// replaySummaries replays the window's completed summarize requests at the
// given concurrency, dispatching for at most budget. It reports the core
// phases and the mining, matcher and selection counters per summary, and
// returns the trace overhead: the replay's median library-call time against
// the median compute stage the engine reported for the same requests.
func (lm *layerMetrics) replaySummaries(g *fgs.Graph, groups *fgs.Groups, win []*call, workers int, budget time.Duration) (float64, error) {
	var todo []*call
	var served []time.Duration
	for _, c := range win {
		if isSummarize(c) && !c.censored && c.status == http.StatusOK {
			todo = append(todo, c)
		}
	}
	rp := newReplay()
	deadline := time.Now().Add(budget)
	var mu sync.Mutex
	next := 0
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(todo) || time.Now().After(deadline) || firstErr != nil {
					mu.Unlock()
					return
				}
				c := todo[next]
				next++
				served = append(served, c.stages["compute"])
				mu.Unlock()
				if err := rp.one(g, groups, c); err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	rp.report(lm)
	lm.algorithm(gather(rp.o.Reg), rp.runs)
	base := quantileMs(served, 0.5)
	return 100 * ratio(quantileMs(rp.calls, 0.5)-base, base), nil
}

// applyPhases averages the maintainer's select and cover phase spans
// recorded since the load started, per applied update. Inc-FGS applies these
// batches without a mine phase (it mines only to recover a selection), so
// that phase is not reported.
func (lm *layerMetrics) applyPhases(t *fgs.Trace, since time.Duration, updates float64) {
	recs := t.Records()
	roots := map[int32]bool{}
	for i, r := range recs {
		if r.Name == "incfgs" {
			roots[int32(i)] = true
		}
	}
	sums := map[string]float64{}
	for _, r := range recs {
		if r.Done && roots[r.Parent] && r.Start >= since {
			sums[r.Name] += ms(r.Dur)
		}
	}
	lm.set("core.apply.select_ms", ratio(sums["select"], updates))
	lm.set("core.apply.cover_ms", ratio(sums["summarize"], updates))
}

// graphOps times the graph layer's public operations on g: a full Clone,
// inserting and then removing a batch of fresh edges on the clone, and the
// r-hop node expansion around that batch's endpoints. g is left as it was.
func (lm *layerMetrics) graphOps(g *fgs.Graph, seed int64) error {
	const reps = 3
	var clones, mutates, rhops []float64
	gen := newWriteGen(g, seed+3, ingestTailShare, 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		c := g.Clone()
		clones = append(clones, ms(time.Since(t0)))
		b := &batch{}
		for j := 0; j < ingestBatch; j++ {
			b.insert = append(b.insert, gen.fresh())
		}
		t0 = time.Now()
		if err := applyBatch(c, b); err != nil {
			return err
		}
		if err := applyBatch(c, &batch{delete: b.insert}); err != nil {
			return err
		}
		mutates = append(mutates, us(time.Since(t0))/float64(2*len(b.insert)))
		var roots []fgs.NodeID
		for _, e := range b.insert[:64] {
			roots = append(roots, fgs.NodeID(e.From), fgs.NodeID(e.To))
		}
		t0 = time.Now()
		c.RHopNodesOf(roots, 2)
		rhops = append(rhops, ms(time.Since(t0)))
	}
	lm.set("graph.clone_ms", median(clones))
	lm.set("graph.mutate_us_per_edge", median(mutates))
	lm.set("graph.rhop_ms", median(rhops))
	lm.set("graph.edge_id_bound", float64(g.EdgeIDBound()))
	return nil
}

// spanLog keeps one span per ServeHTTP call in memory; writeTrace turns
// them into a Chrome trace at the end of the run.
type spanLog struct{ calls []*call }

func (s *spanLog) add(c *call) { s.calls = append(s.calls, c) }

// replayClock is an obs.Clock the span export sets explicitly, so recorded
// request spans can be laid into an obs.Trace after the fact.
type replayClock struct{ t time.Time }

func (c *replayClock) Now() time.Time { return c.t }

// writeTrace writes the recorded spans as a Chrome trace: each request a
// root span named after its endpoint, its Server-Timing stages children
// laid end to end from the send instant.
func (s *spanLog) writeTrace(path string) error {
	if len(s.calls) == 0 {
		return nil
	}
	clk := &replayClock{t: s.calls[0].due}
	for _, c := range s.calls {
		if c.due.Before(clk.t) {
			clk.t = c.due
		}
	}
	tr := obs.NewTrace(clk)
	for _, c := range s.calls {
		clk.t = c.sent
		root := tr.Start("http." + c.class)
		root.SetArg("status", int64(c.status))
		at := c.sent
		for _, st := range stageNames {
			d, ok := c.stages[st]
			if !ok {
				continue
			}
			clk.t = at
			sp := root.Child(st)
			at = at.Add(d)
			clk.t = at
			sp.End()
		}
		clk.t = c.done
		root.End()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
