// Package server implements fgsd's serving engine: a summarization service
// over one live graph, designed for heavy concurrent read traffic with a
// serialized write path (DESIGN.md §10, §11).
//
// Concurrency model — single writer, many readers, MVCC:
//
//   - Read endpoints (summarize, summarize-k, view, workload, stats) pin the
//     current epoch view — an immutable (epoch, graph replica, summary)
//     bundle — for the request lifetime and compute against it without ever
//     touching the engine's write lock. A slow summarize holds its epoch
//     open; it cannot delay writes, and writes cannot tear its view.
//   - Write requests (edge insert/delete batches) are serialized through the
//     Inc-FGS Maintainer under the write lock, advance the graph epoch when —
//     and only when — the batch changed the graph, and publish a fresh view
//     by O(delta) replay onto a pooled replica (view.go).
//
// Around the engine sit admission control (a bounded worker semaphore with
// a bounded wait queue; saturation answers 503 + Retry-After), per-request
// deadlines, and an epoch-keyed LRU result cache: cache keys embed the epoch
// at which the response was computed, so every write invalidates the whole
// cache by construction — stale entries can never be served and simply age
// out of the LRU.
//
// Responses are canonically encoded (fixed field order, normalized request
// hashing), so an identical request sequence yields byte-identical response
// bodies at any worker count — the serving layer inherits the library's
// determinism contract (DESIGN.md §7).
package server

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cwru-db/fgs/internal/core"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/mining"
	"github.com/cwru-db/fgs/internal/obs"
	"github.com/cwru-db/fgs/internal/pattern"
	"github.com/cwru-db/fgs/internal/store"
	"github.com/cwru-db/fgs/internal/submod"
)

// Config tunes the serving engine. The zero value serves sequentially with
// sensible defaults; see withDefaults for the concrete numbers.
type Config struct {
	// R, K, N are the summarization defaults a request inherits when it
	// leaves the corresponding field unset (R 2, K 0 = unbounded, N 20).
	R, K, N int
	// Utility is the maintained summary's utility spec, in the CLI syntax:
	// "coverage[:edgelabel]", "rating[:attr]", "diversity:attr", or
	// "cardinality". Requests may override it per call. Default "coverage".
	Utility string
	// Workers sizes the admission semaphore — the number of concurrently
	// computing requests — and flows into core.Config.Workers for each run's
	// mining pipeline. 0 serves sequentially (one slot); summaries are
	// byte-identical at any setting.
	Workers int
	// QueueDepth bounds requests waiting for a free worker slot beyond the
	// in-flight cap; arrivals beyond slots+queue get 503 + Retry-After.
	// 0 picks the default (4× slots); negative disables queueing entirely.
	QueueDepth int
	// CacheEntries caps the epoch-keyed result cache. 0 picks the default
	// (256); negative disables caching.
	CacheEntries int
	// Deadline bounds each compute request, covering the queue wait; an
	// admitted request runs to completion (the algorithms are not
	// preemptible), so the deadline's job is shedding work that would start
	// too late. 0 picks the default (30s).
	Deadline time.Duration
	// EmbedCap bounds embedding enumeration for view and workload queries
	// when the request does not set its own (0 = matcher default).
	EmbedCap int
	// ReadMode names the read path. The only one is "mvcc", which serves
	// reads from pinned epoch views so they never contend with the writer;
	// "" means the same. Any other value makes New fail.
	ReadMode string
	// MaxViews caps the MVCC replica pool — the current view plus views
	// still pinned by readers plus free replicas. Each replica is a full
	// graph copy, so this bounds the engine's graph memory to MaxViews×|G|;
	// when the pool is exhausted the writer waits for a reader to release a
	// view. 0 picks the default (3).
	MaxViews int
	// Obs receives the maintainer's phase spans (when it carries a trace),
	// per-endpoint latency histograms, and cache/admission counters. Nil
	// installs a private registry so /metrics works regardless.
	Obs *obs.Observer
	// DisableTracing turns off request-scoped tracing: no trace IDs, no
	// X-Fgs-Trace/Server-Timing headers, no stage histograms, no flight
	// recorder. Exists for the tracing-inertness determinism test and as an
	// operator escape hatch; responses are byte-identical either way.
	DisableTracing bool
	// FlightEvents sizes the flight recorder ring (rounded up to a power of
	// two). 0 picks the default (1024); negative disables the recorder
	// while keeping per-request tracing.
	FlightEvents int
	// SlowRequest is the latency threshold above which a completed request
	// is logged (with its trace ID and stage breakdown) and triggers a
	// flight-recorder dump. 0 disables the slow-request path.
	SlowRequest time.Duration
	// Log receives the engine's structured events: epoch publishes,
	// slow-request reports, flight-recorder dumps. Nil discards them.
	Log *slog.Logger
	// FlightDump receives automatic flight-recorder dumps on 5xx and
	// slow requests (rate-limited to one per cooldown window). Nil disables
	// automatic dumps; explicit DumpFlightRecorder calls and the
	// /debug/fgs/flightrecorder endpoint work regardless.
	FlightDump io.Writer
	// Store, when non-nil, is the open fgstore (internal/store) the engine
	// makes itself durable in: every applied update batch is appended to its
	// WAL before it is published or acknowledged, and the engine snapshots
	// into it periodically and on drain (FinalSnapshot).
	Store *store.Store
	// Resume carries what Store recovered at open. Nil (or Fresh) boots the
	// engine from the given graph and seals the initial state with a
	// snapshot at epoch 0. Otherwise New resumes the maintainer from the
	// snapshot checkpoint and replays Resume.Tail through the same
	// Maintainer.Apply path that produced it, so the booted engine is
	// byte-identical to the pre-crash one. The graph passed to New must then
	// be Resume.Graph.
	Resume *store.Recovered
	// SnapshotEvery triggers an automatic snapshot each time that many
	// graph-changing batches have landed since the last one (0 disables the
	// automatic trigger; FinalSnapshot still snapshots on drain). Ignored
	// without Store.
	SnapshotEvery int
}

func (c Config) withDefaults() Config {
	if c.R <= 0 {
		c.R = 2
	}
	if c.N <= 0 {
		c.N = 20
	}
	if c.Utility == "" {
		c.Utility = "coverage"
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * maxInt(1, c.Workers)
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.Deadline == 0 {
		c.Deadline = 30 * time.Second
	}
	if c.FlightEvents == 0 {
		c.FlightEvents = 1024
	}
	if c.FlightEvents < 0 {
		c.FlightEvents = 0
	}
	if c.MaxViews <= 0 {
		c.MaxViews = 3
	} else if c.MaxViews == 1 {
		// Publication needs a replica besides the current view (the current
		// view cannot retire until its successor is published), so one view
		// could never publish: 2 is the floor.
		c.MaxViews = 2
	}
	return c
}

// ReadModeMVCC is the read path's name in Config.ReadMode and in the
// "mode" field of /v1/stats and /debug/fgs/views.
const ReadModeMVCC = "mvcc"

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Server is the engine plus its HTTP surface. Create one with New, mount
// Handler on an http.Server, and call StartDrain before Shutdown.
type Server struct {
	cfg Config

	// mu serializes writers over the live graph g and the maintainer.
	// Readers never acquire it — they pin views instead.
	mu     sync.Mutex
	g      *graph.Graph
	groups *submod.Groups
	maint  *core.Maintainer

	// views is the MVCC publication state readers pin.
	views *viewSet

	// epoch counts graph-changing write batches. It is written only under
	// mu; readers load it lock-free.
	epoch atomic.Uint64

	cache    *resultCache
	adm      *admission
	clock    obs.Clock
	reg      *obs.Registry
	http     *obs.EndpointStats
	draining atomic.Bool
	mux      *http.ServeMux

	// Request tracing (DESIGN.md §13). All nil when Config.DisableTracing:
	// the middleware degrades to the pre-tracing shell.
	tgen   *obs.TraceIDGen
	stages *obs.StageStats
	flight *obs.FlightRecorder // may also be nil with tracing on (FlightEvents < 0)
	log    *slog.Logger        // never nil; discards when Config.Log is nil

	// Automatic flight-dump state (5xx / slow requests), rate-limited so a
	// 5xx storm does not turn the dump writer into the bottleneck.
	dumpMu   sync.Mutex
	lastDump time.Time

	// Durability (DESIGN.md §15). store is nil when the engine is purely
	// in-memory. sinceSnap counts graph-changing batches since the last
	// snapshot trigger (guarded by mu); snapWG tracks
	// background snapshot writers so drain can wait them out.
	store     *store.Store
	sinceSnap int
	snapWG    sync.WaitGroup

	// testHook, when set, runs at the start of every admitted compute with
	// the endpoint name — tests use it to hold requests in flight.
	testHook func(endpoint string)
}

// New builds the engine: it computes the initial maintained summary with
// Inc-FGS (so write batches are handled incrementally from the first
// request) and wires the cache, admission control, and HTTP routes.
func New(g *graph.Graph, groups *submod.Groups, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.ReadMode != "" && cfg.ReadMode != ReadModeMVCC {
		return nil, fmt.Errorf("server: unknown read mode %q (have %q)", cfg.ReadMode, ReadModeMVCC)
	}
	util, err := submod.ParseUtility(g, cfg.Utility)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	reg := cfg.Obs.GetReg()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:    cfg,
		g:      g,
		groups: groups,
		cache:  newResultCache(cfg.CacheEntries),
		adm:    newAdmission(maxInt(1, cfg.Workers), cfg.QueueDepth),
		clock:  cfg.Obs.GetClock(),
		reg:    reg,
		http:   obs.NewEndpointStats(),
		log:    cfg.Log,
		store:  cfg.Store,
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if !cfg.DisableTracing {
		s.tgen = obs.NewTraceIDGen(s.clock.Now().UnixNano())
		s.stages = obs.NewStageStats()
		s.flight = obs.NewFlightRecorder(cfg.FlightEvents)
		reg.Register(s.stages)
		if s.flight != nil {
			reg.Register(s.flight)
		}
	}
	reg.Register(s.http)
	if s.cache != nil {
		reg.Register(s.cache)
	}
	reg.Register(s.adm)
	// The maintainer is the one long-lived algorithm run, so it may report
	// into the shared observer; per-request runs must not (each would
	// register another E_v^r cache source and grow the registry without
	// bound over the server's lifetime).
	mcfg := s.coreConfig(cfg.R, cfg.K, cfg.N)
	mcfg.Obs = cfg.Obs
	var sum *core.Summary
	if cfg.Resume != nil && !cfg.Resume.Fresh {
		// Recovery boot: resume the maintainer from the snapshot checkpoint,
		// then replay the WAL tail through the same Apply path that produced
		// it. Determinism makes the replay exact — each logged batch changed
		// the graph when it was first applied, so it must again; a batch that
		// suddenly applies nothing means the snapshot and log disagree.
		s.maint, sum, err = core.ResumeMaintainer(g, groups, util, mcfg, cfg.Resume.State)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		for _, rec := range cfg.Resume.Tail {
			s2, applied, _ := s.maint.Apply(rec.Delta)
			if applied == 0 {
				return nil, fmt.Errorf("server: recovery replay diverged at epoch %d: logged batch applied no change", rec.Epoch)
			}
			sum = s2
		}
		s.epoch.Store(cfg.Resume.Epoch)
		s.log.Info("recovery",
			"snapshot_epoch", cfg.Resume.SnapshotEpoch,
			"epoch", cfg.Resume.Epoch,
			"replayed", len(cfg.Resume.Tail),
			"replay_bytes", cfg.Resume.TailBytes,
			"truncated", cfg.Resume.Truncated,
			"covered", len(sum.Covered))
	} else {
		s.maint, sum = core.NewMaintainer(g, groups, util, mcfg)
		if s.store != nil {
			// Seal the initial state so a crash before the first snapshot
			// trigger still recovers: epoch 0 = this graph + this checkpoint.
			st, err := s.maint.Checkpoint()
			if err != nil {
				return nil, fmt.Errorf("server: %w", err)
			}
			if err := s.store.WriteSnapshot(0, g, st); err != nil {
				return nil, fmt.Errorf("server: initial snapshot: %w", err)
			}
		}
	}
	if s.store != nil {
		reg.Register(s.store)
	}
	s.views = newViewSet(g, sum, cfg.MaxViews, s.clock, s.epoch.Load())
	reg.Register(s.views)
	reg.Register(s) // epoch gauge
	s.routes()
	return s, nil
}

// ObsMetrics exports the server-level gauges (obs.Source): the epoch and
// the live fairness state — per-group coverage of the currently published
// summary, so fairness drift under an update stream is visible on /metrics
// without touching the introspection endpoints.
func (s *Server) ObsMetrics() []obs.Metric {
	rc := s.acquireRead(nil)
	counts := s.groups.Counts(rc.summary.Covered)
	rc.release()
	out := []obs.Metric{
		{Name: "fgs_server_epoch", Help: "Current graph epoch", Kind: obs.KindGauge, Value: float64(s.epoch.Load())},
	}
	for i := 0; i < s.groups.Len(); i++ {
		grp := s.groups.At(i)
		labels := []obs.Label{{Key: "group", Val: grp.Name}}
		out = append(out,
			obs.Metric{Name: "fgs_fairness_covered", Help: "Group nodes covered by the published summary, by group", Kind: obs.KindGauge, Labels: labels, Value: float64(counts[i])},
			obs.Metric{Name: "fgs_fairness_lower_bound", Help: "Group coverage lower bound, by group", Kind: obs.KindGauge, Labels: labels, Value: float64(grp.Lower)},
			obs.Metric{Name: "fgs_fairness_upper_bound", Help: "Group coverage upper bound, by group", Kind: obs.KindGauge, Labels: labels, Value: float64(grp.Upper)},
		)
	}
	return out
}

// coreConfig assembles a core.Config for one run from request parameters
// plus the server-wide knobs.
func (s *Server) coreConfig(r, k, n int) core.Config {
	return core.Config{
		R:       r,
		K:       k,
		N:       n,
		Workers: s.cfg.Workers,
		Mining:  mining.Config{EmbedCap: s.cfg.EmbedCap},
	}
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Epoch returns the current graph epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// StartDrain flips the server into draining mode: /healthz answers 503 so
// load balancers stop routing here, and new compute requests are refused
// with 503 + Retry-After, while requests already admitted run to
// completion. Pair it with http.Server.Shutdown, which waits for in-flight
// handlers (see cmd/fgsd for the full sequence).
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// --- compute paths -------------------------------------------------------
//
// Every compute method works against one consistent read context: a pinned
// epoch view, whose (epoch, graph, summary) triple cannot change for the
// duration of the computation, so the response is cached under exactly the
// epoch it was computed at.

// readCtx is one consistent read of the engine: the graph and maintained
// summary frozen at epoch. release must be called exactly once when the
// computation is done with them.
type readCtx struct {
	epoch   uint64
	g       *graph.Graph
	summary *core.Summary
	release func()
}

// acquireRead opens a read context on the current engine state: it pins
// the current view — an O(1) refcount bump, no engine lock. The pin stage
// span measures how long acquisition took.
func (s *Server) acquireRead(rt *obs.ReqTrace) readCtx {
	sp := rt.Start(obs.StagePin)
	v := s.views.pin()
	sp.End()
	return readCtx{
		epoch:   v.epoch,
		g:       v.g,
		summary: v.summary,
		release: func() { s.views.unpin(v) },
	}
}

// computeSummarize runs APXFGS (or k-APXFGS when k > 0) at the pinned epoch.
func (s *Server) computeSummarize(rt *obs.ReqTrace, req *SummarizeRequest, k bool) (*SummarizeResponse, uint64, error) {
	rc := s.acquireRead(rt)
	defer rc.release()
	util, err := submod.ParseUtility(rc.g, req.Utility)
	if err != nil {
		return nil, 0, &requestError{err}
	}
	cfg := s.coreConfig(req.R, req.K, req.N)
	var sum *core.Summary
	if k {
		sum, err = core.KAPXFGS(rc.g, s.groups, util, cfg)
	} else {
		sum, err = core.APXFGS(rc.g, s.groups, util, cfg)
	}
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf, rc.g); err != nil {
		return nil, 0, err
	}
	return &SummarizeResponse{Epoch: rc.epoch, Summary: buf.Bytes()}, rc.epoch, nil
}

// computeView answers a pattern query over the maintained summary as a
// materialized view.
func (s *Server) computeView(rt *obs.ReqTrace, req *ViewRequest) (*ViewResponse, uint64, error) {
	p, err := pattern.ParseString(req.Pattern)
	if err != nil {
		return nil, 0, &requestError{err}
	}
	rc := s.acquireRead(rt)
	defer rc.release()
	nodes := core.QueryView(rc.g, rc.summary, p, req.EmbedCap)
	ids := make([]int64, len(nodes))
	for i, v := range nodes {
		ids[i] = int64(v)
	}
	return &ViewResponse{Epoch: rc.epoch, Count: len(ids), Nodes: ids}, rc.epoch, nil
}

// computeWorkload evaluates the maintained summary's patterns as annotated
// benchmark queries.
func (s *Server) computeWorkload(rt *obs.ReqTrace, req *WorkloadRequest) (*WorkloadResponse, uint64, error) {
	rc := s.acquireRead(rt)
	defer rc.release()
	entries := core.Workload(rc.g, rc.summary, req.EmbedCap)
	out := make([]WorkloadQuery, 0, len(entries))
	for _, e := range entries {
		var b strings.Builder
		if err := pattern.Format(&b, e.P); err != nil {
			return nil, 0, err
		}
		out = append(out, WorkloadQuery{
			Pattern:        b.String(),
			Cardinality:    e.Cardinality,
			CoveredMatches: e.CoveredMatches,
			Selectivity:    e.Selectivity,
		})
	}
	return &WorkloadResponse{Epoch: rc.epoch, Queries: out}, rc.epoch, nil
}

// computeUpdate applies one write batch through the maintainer under the
// write lock and advances the epoch iff the graph changed. A graph-changing
// batch is logged first (with a store), then publishes the new epoch's view:
// replay of the same delta onto a pooled replica plus a pointer swap, after
// which newly arriving readers see the new epoch while readers already
// pinned keep their old one.
func (s *Server) computeUpdate(rt *obs.ReqTrace, req *UpdateRequest) (*UpdateResponse, error) {
	delta := core.Delta{}
	for _, e := range req.Insert {
		delta.Insert = append(delta.Insert, core.EdgeUpdate{From: graph.NodeID(e.From), To: graph.NodeID(e.To), Label: e.Label})
	}
	for _, e := range req.Delete {
		delta.Delete = append(delta.Delete, core.EdgeUpdate{From: graph.NodeID(e.From), To: graph.NodeID(e.To), Label: e.Label})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sum, applied, err := s.maint.Apply(delta)
	if applied > 0 {
		epoch := s.epoch.Load() + 1
		if s.store != nil {
			// Log the batch exactly as requested — replay re-applies it
			// through the same Apply path, where per-edge failures repeat
			// deterministically — before anyone can see it. The response is
			// not acknowledged until the record is durable per the fsync
			// policy. An append failure is fatal for the write path (the WAL
			// error is sticky, and the store then refuses snapshots), so
			// report 500 and leave the epoch unpublished rather than serve a
			// batch that will not survive a restart.
			if werr := s.store.Append(store.Record{Epoch: epoch, Delta: delta}); werr != nil {
				s.log.Error("wal append failed", "epoch", epoch, "err", werr)
				return nil, werr
			}
		}
		s.epoch.Store(epoch)
		s.views.publish(delta, epoch, sum)
		s.maybeSnapshotLocked(epoch)
		s.log.Info("publish",
			"epoch", epoch,
			"applied", applied,
			"insert", len(delta.Insert),
			"delete", len(delta.Delete),
			"covered", len(sum.Covered),
			"trace", rt.IDString())
	}
	resp := &UpdateResponse{
		Epoch:   s.epoch.Load(),
		Applied: applied,
		Summary: summaryStatsOf(sum),
	}
	if err != nil {
		resp.Error = err.Error()
		if applied == 0 {
			return resp, &requestError{err}
		}
	}
	return resp, nil
}

// maybeSnapshotLocked counts a graph-changing batch and, with a store, every
// SnapshotEvery of them snapshots the engine at the just-published epoch.
// Caller holds the write lock, where the maintainer checkpoint is cheap and
// consistent with the epoch. The expensive part — streaming the graph
// image — runs off the write path against the pinned epoch view (its
// replica is frozen at exactly this epoch). A snapshot already in flight
// skips the trigger — the counter keeps accumulating, so the next batch
// retries.
func (s *Server) maybeSnapshotLocked(epoch uint64) {
	s.sinceSnap++
	if s.store == nil || s.cfg.SnapshotEvery <= 0 || s.sinceSnap < s.cfg.SnapshotEvery {
		return
	}
	st, err := s.maint.Checkpoint()
	if err != nil {
		s.log.Error("snapshot checkpoint failed", "epoch", epoch, "err", err)
		return
	}
	v := s.views.pin() // the current view: just published at this epoch
	sn, err := s.store.BeginSnapshot(epoch)
	if err != nil {
		s.views.unpin(v)
		s.log.Info("snapshot skipped", "epoch", epoch, "reason", err)
		return
	}
	s.sinceSnap = 0
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		defer s.views.unpin(v)
		sn.WriteGraph(v.g)
		sn.WriteState(st)
		if err := sn.Commit(); err != nil {
			s.log.Error("snapshot failed", "epoch", epoch, "err", err)
			return
		}
		s.log.Info("snapshot", "epoch", epoch)
	}()
}

// FinalSnapshot writes a synchronous snapshot of the current state unless
// the live snapshot already is the current epoch. Call it during shutdown,
// after the HTTP server has drained (no in-flight writes), before closing
// the store: restart then recovers from the snapshot alone, with an empty
// WAL tail to replay.
func (s *Server) FinalSnapshot() error {
	if s.store == nil {
		return nil
	}
	s.snapWG.Wait() // background writers do not take mu; settle them first
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := s.epoch.Load()
	if epoch == s.store.SnapshotEpoch() {
		return nil
	}
	st, err := s.maint.Checkpoint()
	if err != nil {
		return fmt.Errorf("server: final snapshot: %w", err)
	}
	if err := s.store.WriteSnapshot(epoch, s.g, st); err != nil {
		return fmt.Errorf("server: final snapshot: %w", err)
	}
	s.log.Info("snapshot", "epoch", epoch, "final", true)
	return nil
}

// computeStats snapshots the engine. Everything in the response is
// deterministic for a fixed request sequence: epoch, sizes, and the cache
// and admission counters; wall-clock readings are exported on /metrics
// only.
func (s *Server) computeStats(rt *obs.ReqTrace) (*StatsResponse, uint64, error) {
	rc := s.acquireRead(rt)
	defer rc.release()
	resp := &StatsResponse{
		Epoch:     rc.epoch,
		Nodes:     rc.g.NumNodes(),
		Edges:     rc.g.NumEdges(),
		Groups:    s.groups.Len(),
		Summary:   summaryStatsOf(rc.summary),
		Cache:     s.cache.stats(),
		Admission: s.adm.stats(),
	}
	st := s.views.stats()
	resp.Mvcc = &st
	return resp, rc.epoch, nil
}

func summaryStatsOf(sum *core.Summary) SummaryStats {
	return SummaryStats{
		Patterns:    sum.NumPatterns(),
		Covered:     len(sum.Covered),
		Corrections: sum.Corrections.Len(),
		CL:          sum.CL,
		Utility:     sum.Utility,
	}
}
