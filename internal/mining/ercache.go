package mining

import (
	"sync"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/obs"
)

// ErCache memoizes per-node r-hop edge sets E_v^r, which SumGen and the FGS
// algorithms query repeatedly for the same nodes.
//
// The cache is safe for concurrent use: one mutex guards the map and the
// counters, so SumGen's scoring workers can share one cache. Only they
// ever do: every request builds its own cache, and fgsd touches the
// maintainer's only under its write lock. Entries are EdgeBits — the
// dense-EdgeID bitsets of the hot paths — returned by reference and
// immutable by contract (every caller in this repository only reads them
// or unions them into fresh sets). A freed EdgeID can be reused by a later
// insertion, but any cached set containing it lies within r hops of the
// deleted edge's endpoints and is invalidated by the maintenance paths
// before the ID can be observed stale.
type ErCache struct {
	g  *graph.Graph
	r  int
	mu sync.Mutex
	m  map[graph.NodeID]*graph.EdgeBits
	// Always-on counters, read/written under mu the Get/Invalidate paths
	// already hold — no extra synchronization, no allocation.
	hits      int64
	misses    int64
	evictions int64
}

// NewErCache returns a cache for radius r over g.
func NewErCache(g *graph.Graph, r int) *ErCache {
	return &ErCache{g: g, r: r, m: make(map[graph.NodeID]*graph.EdgeBits)}
}

// Radius returns the cache's r.
func (c *ErCache) Radius() int { return c.r }

// Graph returns the graph the cache computes neighborhoods over.
func (c *ErCache) Graph() *graph.Graph { return c.g }

// Get returns E_v^r, computing and memoizing it on first use. The BFS runs
// under the lock: the graph is read-only during mining, and holding the
// lock means concurrent requests for the same hot node compute it once
// instead of racing on duplicate work.
func (c *ErCache) Get(v graph.NodeID) *graph.EdgeBits {
	c.mu.Lock()
	defer c.mu.Unlock()
	if es, ok := c.m[v]; ok {
		c.hits++
		return es
	}
	c.misses++
	es := c.g.RHopEdgeBits(v, c.r)
	c.m[v] = es
	return es
}

// UnionOf returns the union E_X^r over a node set as a fresh bitset sized to
// the graph's EdgeID space, so folding members in is pure word-OR work.
func (c *ErCache) UnionOf(nodes []graph.NodeID) *graph.EdgeBits {
	u := graph.NewEdgeBits(c.g.EdgeIDBound())
	for _, v := range nodes {
		u.Union(c.Get(v))
	}
	return u
}

// UnionAndNotCount reports |E_X^r \ not| over a node set, what
// UnionOf(nodes).AndNotCount(not) reports, without building the union. It
// is the correction count C_P = |E^r_{P_V} \ P_E| of a scored pattern.
func (c *ErCache) UnionAndNotCount(nodes []graph.NodeID, not *graph.EdgeBits) int {
	sets := make([]*graph.EdgeBits, len(nodes))
	for i, v := range nodes {
		sets[i] = c.Get(v)
	}
	return graph.UnionAndNotCount(sets, not)
}

// Invalidate drops cached entries for the given nodes (used by Inc-FGS when
// edge insertions change neighborhoods).
func (c *ErCache) Invalidate(nodes []graph.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range nodes {
		if _, ok := c.m[v]; ok {
			c.evictions++
			delete(c.m, v)
		}
	}
}

// ObsMetrics snapshots the hit/miss/eviction counters and the entry count,
// implementing obs.Source. Runs registering fresh caches into one registry
// merge by summation at Gather time.
func (c *ErCache) ObsMetrics() []obs.Metric {
	c.mu.Lock()
	hits, misses, evictions, entries := c.hits, c.misses, c.evictions, len(c.m)
	c.mu.Unlock()
	return []obs.Metric{
		{Name: "fgs_ercache_hits_total", Help: "E_v^r cache hits.", Kind: obs.KindCounter, Value: float64(hits)},
		{Name: "fgs_ercache_misses_total", Help: "E_v^r cache misses (BFS computations).", Kind: obs.KindCounter, Value: float64(misses)},
		{Name: "fgs_ercache_evictions_total", Help: "E_v^r cache invalidations.", Kind: obs.KindCounter, Value: float64(evictions)},
		{Name: "fgs_ercache_entries", Help: "Cached E_v^r entries.", Kind: obs.KindGauge, Value: float64(entries)},
	}
}
