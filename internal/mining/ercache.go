package mining

import (
	"strconv"
	"sync"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/obs"
)

// erShards is the stripe count of ErCache. A modest power of two keeps the
// per-shard maps small while making lock collisions between scoring workers
// unlikely (workers touch disjoint covered-node sets most of the time).
const erShards = 32

// ErCache memoizes per-node r-hop edge sets E_v^r, which SumGen and the FGS
// algorithms query repeatedly for the same nodes.
//
// The cache is safe for concurrent use: entries live in erShards stripes,
// each behind its own mutex, so the parallel scoring pipeline can share one
// cache across workers. Entries are EdgeBits — the dense-EdgeID bitsets of
// the hot paths — returned by reference and immutable by contract (every
// caller in this repository only reads them or unions them into fresh sets).
// A freed EdgeID can be reused by a later insertion, but any cached set
// containing it lies within r hops of the deleted edge's endpoints and is
// invalidated by the maintenance paths before the ID can be observed stale.
type ErCache struct {
	g      *graph.Graph
	r      int
	shards [erShards]erShard
}

type erShard struct {
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
	c := &ErCache{g: g, r: r}
	for i := range c.shards {
		c.shards[i].m = make(map[graph.NodeID]*graph.EdgeBits)
	}
	return c
}

// Radius returns the cache's r.
func (c *ErCache) Radius() int { return c.r }

// Graph returns the graph the cache computes neighborhoods over.
func (c *ErCache) Graph() *graph.Graph { return c.g }

func (c *ErCache) shardOf(v graph.NodeID) *erShard {
	return &c.shards[uint64(v)%erShards]
}

// Get returns E_v^r, computing and memoizing it on first use. The BFS runs
// under the shard lock: the graph is read-only during mining, and holding the
// lock means concurrent requests for the same hot node compute it once
// instead of racing on duplicate work.
func (c *ErCache) Get(v graph.NodeID) *graph.EdgeBits {
	s := c.shardOf(v)
	s.mu.Lock()
	defer s.mu.Unlock()
	if es, ok := s.m[v]; ok {
		s.hits++
		return es
	}
	s.misses++
	es := c.g.RHopEdgeBits(v, c.r)
	s.m[v] = es
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
	for _, v := range nodes {
		s := c.shardOf(v)
		s.mu.Lock()
		if _, ok := s.m[v]; ok {
			s.evictions++
			delete(s.m, v)
		}
		s.mu.Unlock()
	}
}

// ObsMetrics snapshots the per-shard hit/miss/eviction counters and the
// entry count as labeled series, implementing obs.Source. Runs registering
// fresh caches into one registry merge by summation at Gather time.
func (c *ErCache) ObsMetrics() []obs.Metric {
	out := make([]obs.Metric, 0, 3*erShards+1)
	entries := int64(0)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits, misses, evictions, n := s.hits, s.misses, s.evictions, len(s.m)
		s.mu.Unlock()
		entries += int64(n)
		labels := []obs.Label{{Key: "shard", Val: strconv.Itoa(i)}}
		out = append(out,
			obs.Metric{Name: "fgs_ercache_hits_total", Help: "E_v^r cache hits per shard.", Kind: obs.KindCounter, Labels: labels, Value: float64(hits)},
			obs.Metric{Name: "fgs_ercache_misses_total", Help: "E_v^r cache misses (BFS computations) per shard.", Kind: obs.KindCounter, Labels: labels, Value: float64(misses)},
			obs.Metric{Name: "fgs_ercache_evictions_total", Help: "E_v^r cache invalidations per shard.", Kind: obs.KindCounter, Labels: labels, Value: float64(evictions)},
		)
	}
	out = append(out, obs.Metric{Name: "fgs_ercache_entries", Help: "Cached E_v^r entries across all shards.", Kind: obs.KindGauge, Value: float64(entries)})
	return out
}

// Warm precomputes E_v^r for the given nodes across workers goroutines,
// so subsequent Get calls from scoring workers hit the cache instead of
// serializing BFS work behind shard locks. workers <= 1 warms sequentially.
// Duplicate nodes are computed once; Warm returns after every node is cached.
func (c *ErCache) Warm(nodes []graph.NodeID, workers int) {
	if len(nodes) == 0 {
		return
	}
	if workers <= 1 || len(nodes) == 1 {
		for _, v := range nodes {
			c.Get(v)
		}
		return
	}
	if workers > len(nodes) {
		workers = len(nodes)
	}
	var next int64
	var mu sync.Mutex
	take := func() (graph.NodeID, bool) {
		mu.Lock()
		defer mu.Unlock()
		if int(next) >= len(nodes) {
			return 0, false
		}
		v := nodes[next]
		next++
		return v, true
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := take()
				if !ok {
					return
				}
				c.Get(v)
			}
		}()
	}
	wg.Wait()
}
