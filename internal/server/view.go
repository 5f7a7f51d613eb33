package server

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/cwru-db/fgs/internal/core"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/obs"
)

// MVCC serving (DESIGN.md §11): the writer owns the live graph and the
// Inc-FGS maintainer; readers never touch them. Instead, each graph-changing
// write batch publishes a new epochView — an immutable bundle of (epoch,
// graph replica, maintained summary) — and readers pin whichever view is
// current when they arrive, holding it for the request lifetime. A pinned
// view cannot change underneath its readers, so a summarize that takes
// seconds observes one frozen epoch while updates keep landing.
//
// Publication must be cheap enough to run per batch, so views are built by
// delta replay over a fixed replica pool, not by snapshotting: a replica
// is a Graph.Clone() of the live graph (byte-identical structure, paid once
// at boot), and bringing a replica from epoch e to epoch e' replays the
// logged write batches (e, e'] with exactly the semantics the maintainer
// used on the live graph — apply inserts skipping failures, then deletes
// skipping failures. Clone determinism (see graph.Clone) guarantees the
// replica converges to the writer's state, so publication costs O(delta),
// not O(V+E).
//
// All maxViews replicas are cloned up front in newViewSet, before the
// engine serves traffic: cloning a multi-million-node graph takes seconds
// (and far longer once concurrent readers drive the allocator), so growing
// the pool lazily on the write path would hand some unlucky early update a
// multi-second latency. Paying the whole pool at boot keeps the publish
// path free of O(V+E) work forever.
//
// Replica lifecycle: a retired view's graph returns to the free pool when
// its last reader unpins. When the writer needs a replica and none is free
// (every one is current or still pinned), it blocks on a condition variable
// until a reader releases one. Readers therefore bound the writer's memory
// to maxViews graph copies, and the writer's wait shows up in the
// writer_waits counter rather than as silent growth.
type viewSet struct {
	mu   sync.Mutex
	cond *sync.Cond

	cur      *epochView
	free     []replica    // replicas ready for catch-up replay
	retired  []*epochView // retired views still pinned by readers
	replicas int          // replicas in circulation (cur + retired + free)
	maxViews int

	// log holds the applied write batches for epochs (logBase, logBase+len],
	// so a replica at epoch e ≥ logBase catches up by replaying entries
	// (e-logBase)…end. Only the writer reads or mutates it (publication is
	// serialized by the server's write lock), so it is not guarded by mu.
	log     []core.Delta
	logBase uint64

	// logLenA/logBaseA mirror len(log)/logBase for the debug endpoint: the
	// log itself is writer-owned and unguarded, so introspection reads these
	// atomics (refreshed at the end of each publish) instead of the slice.
	logLenA  atomic.Int64
	logBaseA atomic.Uint64

	clock obs.Clock

	// Instruments: replica gauge, publish latency (µs), and the clone /
	// writer-wait counters that reveal pool pressure. (The epoch gauge is
	// exported by the Server, which owns the authoritative counter.)
	publishUs   obs.Histogram
	publishes   obs.Counter
	clones      obs.Counter
	writerWaits obs.Counter
}

// epochView is one published (epoch, graph, summary) triple. The graph is a
// replica owned by this view until every pin is released; the summary is the
// maintainer's materialized copy for this epoch. refs and done are guarded
// by the owning viewSet's mu.
type epochView struct {
	epoch   uint64
	g       *graph.Graph
	summary *core.Summary
	refs    int
	done    bool // retired: no longer the current view
}

// replica is a pooled graph clone positioned at a known epoch.
type replica struct {
	g     *graph.Graph
	epoch uint64
}

// newViewSet clones the full replica pool and publishes the boot view at
// bootEpoch — 0 on a cold start, the recovered epoch when the engine booted
// from an fgstore snapshot + WAL replay. All O(V+E) copying happens here,
// before the engine serves traffic; the publish path only ever replays
// deltas.
func newViewSet(live *graph.Graph, summary *core.Summary, maxViews int, clock obs.Clock, bootEpoch uint64) *viewSet {
	vs := &viewSet{
		cur:      &epochView{epoch: bootEpoch, g: live.Clone(), summary: summary},
		replicas: maxViews,
		maxViews: maxViews,
		logBase:  bootEpoch,
		clock:    clock,
	}
	vs.clones.Inc()
	for i := 1; i < maxViews; i++ {
		vs.free = append(vs.free, replica{g: live.Clone(), epoch: bootEpoch})
		vs.clones.Inc()
	}
	vs.logBaseA.Store(bootEpoch)
	vs.cond = sync.NewCond(&vs.mu)
	return vs
}

// pin returns the current view with a reference held. The critical section
// is a handful of instructions — readers contend on this mutex only for the
// pointer swap, never for the duration of a computation.
func (vs *viewSet) pin() *epochView {
	vs.mu.Lock()
	v := vs.cur
	v.refs++
	vs.mu.Unlock()
	return v
}

// unpin releases a reference. When the last reader of a retired view
// releases, its replica rejoins the free pool and a waiting writer is woken.
func (vs *viewSet) unpin(v *epochView) {
	vs.mu.Lock()
	v.refs--
	if v.done && v.refs == 0 {
		vs.recycleLocked(v)
		vs.cond.Signal()
	}
	vs.mu.Unlock()
}

// recycleLocked moves a fully released retired view's replica to the free
// pool. Caller holds vs.mu.
func (vs *viewSet) recycleLocked(v *epochView) {
	for i, rv := range vs.retired {
		if rv == v {
			vs.retired = append(vs.retired[:i], vs.retired[i+1:]...)
			break
		}
	}
	vs.free = append(vs.free, replica{g: v.g, epoch: v.epoch})
	v.g = nil
	v.summary = nil
}

// publish installs the view for epoch after the writer applied delta to the
// live graph. Called only from the write path, under the server's write
// lock, with epoch == previous epoch + 1 and delta the batch exactly as the
// maintainer applied it.
func (vs *viewSet) publish(delta core.Delta, epoch uint64, summary *core.Summary) {
	start := vs.clock.Now()
	vs.log = append(vs.log, delta)

	// Acquire a replica from the free pool, waiting for a reader to release
	// one if every replica is current or still pinned. The pool was fully
	// cloned at boot, so there is never O(V+E) work here.
	vs.mu.Lock()
	var rep replica
	for {
		if n := len(vs.free); n > 0 {
			rep = vs.free[n-1]
			vs.free = vs.free[:n-1]
			break
		}
		vs.writerWaits.Inc()
		vs.cond.Wait()
	}
	vs.mu.Unlock()

	vs.catchUp(&rep, epoch)

	v := &epochView{epoch: epoch, g: rep.g, summary: summary}
	vs.mu.Lock()
	old := vs.cur
	vs.cur = v
	old.done = true
	if old.refs == 0 {
		vs.recycleLocked(old)
		vs.cond.Signal()
	} else {
		vs.retired = append(vs.retired, old)
	}
	minEpoch := epoch
	for _, r := range vs.free {
		if r.epoch < minEpoch {
			minEpoch = r.epoch
		}
	}
	for _, rv := range vs.retired {
		if rv.epoch < minEpoch {
			minEpoch = rv.epoch
		}
	}
	vs.mu.Unlock()

	vs.pruneLog(minEpoch)
	vs.logLenA.Store(int64(len(vs.log)))
	vs.logBaseA.Store(vs.logBase)
	vs.publishes.Inc()
	vs.publishUs.Observe(vs.clock.Now().Sub(start).Microseconds())
}

// catchUp replays the logged batches (rep.epoch, target] onto the replica,
// mirroring core.Maintainer.Apply's graph mutations: every insert attempted
// in order ignoring failures, then every delete. The replica started as a
// byte-identical clone and has replayed the identical sequence since, so
// each operation succeeds or fails exactly as it did on the live graph.
func (vs *viewSet) catchUp(rep *replica, target uint64) {
	for e := rep.epoch + 1; e <= target; e++ {
		d := vs.log[e-vs.logBase-1]
		for _, ins := range d.Insert {
			_ = rep.g.AddEdge(ins.From, ins.To, ins.Label) //lint:allow errdrop replay of the logged batch: each op succeeds or fails exactly as it did on the live graph
		}
		for _, del := range d.Delete {
			_ = rep.g.RemoveEdge(del.From, del.To, del.Label) //lint:allow errdrop replay of the logged batch: each op succeeds or fails exactly as it did on the live graph
		}
	}
	rep.epoch = target
}

// pruneLog drops batches no replica can still need: every replica in
// circulation is at an epoch ≥ minEpoch, so entries for epochs ≤ minEpoch
// (which only serve replicas older than that) are dead. With default pool
// sizes the log holds a handful of batches.
func (vs *viewSet) pruneLog(minEpoch uint64) {
	if minEpoch <= vs.logBase {
		return
	}
	drop := minEpoch - vs.logBase
	if drop > uint64(len(vs.log)) {
		drop = uint64(len(vs.log))
	}
	vs.log = append([]core.Delta(nil), vs.log[drop:]...)
	vs.logBase += drop
}

// stats snapshots the deterministic MVCC counters for /v1/stats.
func (vs *viewSet) stats() MvccStats {
	vs.mu.Lock()
	st := MvccStats{
		Mode:        ReadModeMVCC,
		MaxViews:    vs.maxViews,
		Replicas:    vs.replicas,
		Publishes:   vs.publishes.Load(),
		Clones:      vs.clones.Load(),
		WriterWaits: vs.writerWaits.Load(),
	}
	vs.mu.Unlock()
	return st
}

// debug snapshots the full publication state for /debug/fgs/views: the
// current view, every retired view still pinned, and the free replica pool.
// Everything except the log mirrors is read under mu, so the pin counts are
// a consistent cut of the refcount graph.
func (vs *viewSet) debug() ViewsDebug {
	vs.mu.Lock()
	d := ViewsDebug{
		Mode:        ReadModeMVCC,
		Epoch:       vs.cur.epoch,
		MaxViews:    vs.maxViews,
		Replicas:    vs.replicas,
		Current:     ViewDebug{Epoch: vs.cur.epoch, Pins: vs.cur.refs},
		Retired:     make([]ViewDebug, 0, len(vs.retired)),
		FreeEpochs:  make([]uint64, 0, len(vs.free)),
		Publishes:   vs.publishes.Load(),
		WriterWaits: vs.writerWaits.Load(),
	}
	for _, rv := range vs.retired {
		d.Retired = append(d.Retired, ViewDebug{Epoch: rv.epoch, Pins: rv.refs})
	}
	for _, r := range vs.free {
		d.FreeEpochs = append(d.FreeEpochs, r.epoch)
	}
	vs.mu.Unlock()
	sort.Slice(d.Retired, func(i, j int) bool { return d.Retired[i].Epoch < d.Retired[j].Epoch })
	sort.Slice(d.FreeEpochs, func(i, j int) bool { return d.FreeEpochs[i] < d.FreeEpochs[j] })
	d.LogLen = int(vs.logLenA.Load())
	d.LogBase = vs.logBaseA.Load()
	return d
}

// ObsMetrics exports the MVCC instruments (obs.Source): replica pool size,
// publish latency histogram, and the pressure counters.
func (vs *viewSet) ObsMetrics() []obs.Metric {
	st := vs.stats()
	hist := vs.publishUs.Snapshot()
	return []obs.Metric{
		{Name: "fgs_server_mvcc_replicas", Help: "Graph replicas in circulation (current + pinned + free)", Kind: obs.KindGauge, Value: float64(st.Replicas)},
		{Name: "fgs_server_mvcc_publishes_total", Help: "Epoch views published", Kind: obs.KindCounter, Value: float64(st.Publishes)},
		{Name: "fgs_server_mvcc_clones_total", Help: "Full graph clones taken at boot to build the replica pool", Kind: obs.KindCounter, Value: float64(st.Clones)},
		{Name: "fgs_server_mvcc_writer_waits_total", Help: "Publications that blocked waiting for a reader to release a replica", Kind: obs.KindCounter, Value: float64(st.WriterWaits)},
		{Name: "fgs_server_mvcc_publish_us", Help: "Snapshot publication latency in microseconds", Kind: obs.KindHistogram, Hist: &hist},
	}
}
