package graph

// The r-hop neighborhood operators of Section II. Per the paper, "the r-hop
// neighbors (resp. edges) of v refer to the nodes (resp. edges) that can be
// reached from or reach v in r hops", i.e. traversal ignores edge direction
// while the collected edges keep theirs.
//
// Visited marks live in epoch-stamped dense scratch ([]uint32 indexed by
// NodeID) drawn from a per-graph sync.Pool: a node is visited iff its stamp
// equals the scratch's current epoch, so "clearing" between traversals is a
// single epoch increment instead of an O(n) wipe or a fresh map. The pool
// hands each concurrent traversal (the parallel scoring pipeline, fgsd's
// concurrent requests) its own scratch, making the operators safe under
// -fgs.workers.

// visitScratch is one reusable visited-mark array. Invariants: epoch >= 1,
// stamp[v] <= epoch for all v, and stamp[v] == epoch means "visited in the
// current traversal". On the (practically unreachable) uint32 wraparound the
// marks are wiped and the epoch restarts at 1, keeping the invariant.
type visitScratch struct {
	stamp    []uint32
	epoch    uint32
	frontier []NodeID
	next     []NodeID
}

// acquireScratch returns a scratch sized for the graph with a fresh epoch.
func (g *Graph) acquireScratch() *visitScratch {
	s, _ := g.scratch.Get().(*visitScratch)
	if s == nil {
		s = &visitScratch{}
	}
	if n := g.NumNodes(); len(s.stamp) < n {
		grown := make([]uint32, n)
		copy(grown, s.stamp)
		s.stamp = grown
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	s.frontier = s.frontier[:0]
	s.next = s.next[:0]
	return s
}

func (g *Graph) releaseScratch(s *visitScratch) { g.scratch.Put(s) }

// visit marks v and reports whether this is its first visit this traversal.
func (s *visitScratch) visit(v NodeID) bool {
	if s.stamp[v] == s.epoch {
		return false
	}
	s.stamp[v] = s.epoch
	return true
}

// RHopNodes returns N_v^r: every node within undirected distance r of v,
// including v itself.
func (g *Graph) RHopNodes(v NodeID, r int) []NodeID {
	return g.RHopNodesOf([]NodeID{v}, r)
}

// RHopNodesOf returns N_X^r for a node set X: the union of r-hop
// neighborhoods, including the members of X themselves.
func (g *Graph) RHopNodesOf(roots []NodeID, r int) []NodeID {
	s := g.acquireScratch()
	defer g.releaseScratch(s)
	frontier := s.frontier
	for _, v := range roots {
		if g.HasNode(v) && s.visit(v) {
			frontier = append(frontier, v)
		}
	}
	result := append([]NodeID(nil), frontier...)
	next := s.next
	for hop := 0; hop < r && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, v := range frontier {
			for _, e := range g.out[v] {
				if s.visit(e.To) {
					next = append(next, e.To)
				}
			}
			for _, e := range g.in[v] {
				if s.visit(e.To) {
					next = append(next, e.To)
				}
			}
		}
		result = append(result, next...)
		frontier, next = next, frontier
	}
	s.frontier, s.next = frontier, next
	return result
}

// RHopEdgeBits returns E_v^r as a bitset: every directed edge on a path of at
// most r undirected hops from v. Concretely, it is the set of edges traversed
// while expanding up to depth r, i.e. edges (a,b) with
// min(depth(a), depth(b)) < r. This is the hot-path form ErCache memoizes.
func (g *Graph) RHopEdgeBits(v NodeID, r int) *EdgeBits {
	return g.RHopEdgeBitsOf([]NodeID{v}, r)
}

// RHopEdgeBitsOf returns E_X^r as a bitset: the union of r-hop edge sets of
// the roots.
func (g *Graph) RHopEdgeBitsOf(roots []NodeID, r int) *EdgeBits {
	edges := &EdgeBits{}
	s := g.acquireScratch()
	defer g.releaseScratch(s)
	frontier := s.frontier
	for _, v := range roots {
		if g.HasNode(v) && s.visit(v) {
			frontier = append(frontier, v)
		}
	}
	next := s.next
	for hop := 0; hop < r && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, v := range frontier {
			for _, e := range g.out[v] {
				edges.Add(e.ID)
				if s.visit(e.To) {
					next = append(next, e.To)
				}
			}
			for _, e := range g.in[v] {
				edges.Add(e.ID)
				if s.visit(e.To) {
					next = append(next, e.To)
				}
			}
		}
		frontier, next = next, frontier
	}
	s.frontier, s.next = frontier, next
	return edges
}

// RHopEdges returns E_v^r in the map representation — an adapter over
// RHopEdgeBits for the cold paths (verification, metrics, tests) that want
// EdgeRefs.
func (g *Graph) RHopEdges(v NodeID, r int) EdgeSet {
	return g.EdgeSetOf(g.RHopEdgeBits(v, r))
}

// RHopEdgesOf returns E_X^r: the union of r-hop edge sets of the roots.
func (g *Graph) RHopEdgesOf(roots []NodeID, r int) EdgeSet {
	return g.EdgeSetOf(g.RHopEdgeBitsOf(roots, r))
}

// Dist returns the undirected hop distance from src to dst, or -1 if dst is
// unreachable within limit hops. A limit < 0 means unbounded.
func (g *Graph) Dist(src, dst NodeID, limit int) int {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return -1
	}
	if src == dst {
		return 0
	}
	s := g.acquireScratch()
	defer g.releaseScratch(s)
	s.visit(src)
	frontier := append(s.frontier, src)
	next := s.next
	for d := 1; limit < 0 || d <= limit; d++ {
		next = next[:0]
		for _, v := range frontier {
			for _, e := range g.out[v] {
				if e.To == dst {
					s.frontier, s.next = frontier, next
					return d
				}
				if s.visit(e.To) {
					next = append(next, e.To)
				}
			}
			for _, e := range g.in[v] {
				if e.To == dst {
					s.frontier, s.next = frontier, next
					return d
				}
				if s.visit(e.To) {
					next = append(next, e.To)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		frontier, next = next, frontier
	}
	s.frontier, s.next = frontier, next
	return -1
}
