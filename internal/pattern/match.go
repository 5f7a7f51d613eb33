package pattern

import (
	"slices"
	"sort"
	"sync"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/obs"
)

// Matcher evaluates patterns against one graph using anchored subgraph
// isomorphism: a matching h is injective, preserves node labels and literals,
// and maps every pattern edge to a graph edge with the same label
// (Section II). "P covers v" means an embedding with h(u_o) = v exists.
//
// EmbedCap bounds how many embeddings per (pattern, anchor) are enumerated
// when collecting covered edges; 0 means unlimited. The cap trades exactness
// of P_E (and hence of correction sets) for time on pathological anchors.
type Matcher struct {
	g        *graph.Graph
	EmbedCap int

	// Compile cache, keyed by pattern identity. Patterns are immutable
	// (AddLeaf/AddLiteral/AddClosingEdge return copies), so the pointer is a
	// sound canonical key. Guarded by cacheMu because SumGen's scoring
	// workers share one matcher with its producer. Entries with ok=false are
	// stamped with the graph's interner universe sizes and recompiled once
	// the universes grow (see compiledFor).
	cacheMu sync.RWMutex
	cache   map[*Pattern]*compiled

	// Backtracking-search counters, accumulated in locals during each search
	// call and flushed with a handful of atomic adds at the end — safe under
	// concurrent searches, invisible in profiles.
	searches   obs.Counter
	embeddings obs.Counter
	expansions obs.Counter
	prunes     obs.Counter
}

// ObsMetrics snapshots the matcher's search counters, implementing
// obs.Source.
func (m *Matcher) ObsMetrics() []obs.Metric {
	return []obs.Metric{
		{Name: "fgs_match_searches_total", Help: "Anchored backtracking searches started.", Kind: obs.KindCounter, Value: float64(m.searches.Load())},
		{Name: "fgs_match_embeddings_total", Help: "Embeddings enumerated across all searches.", Kind: obs.KindCounter, Value: float64(m.embeddings.Load())},
		{Name: "fgs_match_expansions_total", Help: "Partial-assignment extensions (backtrack nodes visited).", Kind: obs.KindCounter, Value: float64(m.expansions.Load())},
		{Name: "fgs_match_prunes_total", Help: "Candidate nodes rejected during backtracking.", Kind: obs.KindCounter, Value: float64(m.prunes.Load())},
	}
}

// NewMatcher returns a matcher over g with the given embedding cap.
func NewMatcher(g *graph.Graph, embedCap int) *Matcher {
	return &Matcher{g: g, EmbedCap: embedCap}
}

// Graph returns the graph the matcher evaluates against.
func (m *Matcher) Graph() *graph.Graph { return m.g }

// compiled is a pattern with all strings resolved against one graph's
// interners plus a precomputed matching order.
type compiled struct {
	ok     bool // false when some label/key/value does not occur in the graph
	focus  int
	labels []graph.LabelID
	lits   [][]graph.Attr // per node, resolved literals
	// adj lists every edge from each node's perspective.
	adj [][]cEdge
	// order is a BFS matching order starting at the focus; anchorOf[i] gives,
	// for order[i] (i>0), the incident edge to an earlier-mapped node used to
	// generate candidates.
	order    []int
	anchorOf []cEdge // indexed by position in order; anchorOf[0] unused
	pos      []int   // node -> position in order
	// back[i] lists, for order[i], the pattern edges to earlier-mapped nodes
	// other than the anchor edge — the non-tree edges the search must verify
	// when placing position i. Precomputed here so the inner loop skips tree
	// positions (the common case) without scanning adj and re-filtering.
	// backOff[i] is the start of position i's entries in a flat array of
	// nback total back edges; the search scratch uses it to give each
	// (position, back edge) pair a stable slot across recursion levels.
	back    [][]cEdge
	backOff []int
	nback   int

	// nodeBits[u] is the graph's per-label node bitset for labels[u], taken
	// at compile time; nbound is the node count then. nodeOK consults the
	// bitset for nodes below nbound (one shared word per 64 nodes instead of
	// a labelOf load per candidate) and falls back to a direct label compare
	// for nodes interned after compilation.
	nodeBits []*graph.NodeBits
	nbound   int

	// universes stamps ok=false results with Graph.UniverseSizes() at compile
	// time: "unmatchable" only holds while no new label/key/value has been
	// interned, so compiledFor recompiles when the universes grow.
	universes [4]int32
}

// cEdge is one pattern edge viewed from a node: the other endpoint, the edge
// label, and whether the edge leaves this node.
type cEdge struct {
	other int
	label graph.LabelID
	out   bool
}

// Compile resolves a pattern against the matcher's graph. Returns a compiled
// form; c.ok is false when the pattern trivially has no matches because some
// label, key, or value never occurs in the graph.
func (m *Matcher) compile(p *Pattern) compiled {
	n := len(p.Nodes)
	c := compiled{focus: p.Focus, labels: make([]graph.LabelID, n), lits: make([][]graph.Attr, n), adj: make([][]cEdge, n), ok: true}
	for i, node := range p.Nodes {
		lid, ok := m.g.NodeLabelID(node.Label)
		if !ok {
			c.ok = false
			return c
		}
		c.labels[i] = lid
		for _, lit := range node.Literals {
			kid, ok := m.g.AttrKeyID(lit.Key)
			if !ok {
				c.ok = false
				return c
			}
			vid, ok := m.g.AttrValID(lit.Val)
			if !ok {
				c.ok = false
				return c
			}
			c.lits[i] = append(c.lits[i], graph.Attr{Key: kid, Val: vid})
		}
	}
	for _, e := range p.Edges {
		lid, ok := m.g.EdgeLabelID(e.Label)
		if !ok {
			c.ok = false
			return c
		}
		c.adj[e.From] = append(c.adj[e.From], cEdge{other: e.To, label: lid, out: true})
		c.adj[e.To] = append(c.adj[e.To], cEdge{other: e.From, label: lid, out: false})
	}

	// BFS order from the focus. Prefer expanding nodes with more literals and
	// higher pattern degree first: they prune candidates earlier.
	c.order = make([]int, 0, n)
	c.anchorOf = make([]cEdge, n)
	c.pos = make([]int, n)
	placed := make([]bool, n)
	c.order = append(c.order, p.Focus)
	placed[p.Focus] = true
	for len(c.order) < n {
		best := -1
		var bestEdge cEdge
		bestScore := -1
		for _, u := range c.order {
			for _, e := range c.adj[u] {
				if placed[e.other] {
					continue
				}
				score := len(c.lits[e.other])*10 + len(c.adj[e.other])
				if score > bestScore {
					bestScore = score
					best = e.other
					// The anchor edge is stored from the new node's
					// perspective so candidate generation starts at the
					// already-mapped endpoint.
					bestEdge = cEdge{other: u, label: e.label, out: !e.out}
				}
			}
		}
		if best < 0 {
			// Disconnected pattern: callers should have validated; treat as
			// unmatchable rather than panicking deep in a search.
			c.ok = false
			return c
		}
		c.anchorOf[len(c.order)] = bestEdge
		placed[best] = true
		c.order = append(c.order, best)
	}
	for i, u := range c.order {
		c.pos[u] = i
	}
	c.back = make([][]cEdge, n)
	c.backOff = make([]int, n)
	for i := 1; i < n; i++ {
		a := c.anchorOf[i]
		c.backOff[i] = c.nback
		for _, e := range c.adj[c.order[i]] {
			if c.pos[e.other] >= i || (e.other == a.other && e.label == a.label && e.out == a.out) {
				continue
			}
			c.back[i] = append(c.back[i], e)
			c.nback++
		}
	}

	c.nodeBits = make([]*graph.NodeBits, n)
	for u, lid := range c.labels {
		c.nodeBits[u] = m.g.LabelBits(lid)
	}
	c.nbound = m.g.NumNodes()
	return c
}

// compileCacheCap bounds the compile cache; mining sessions churn through
// thousands of transient candidate patterns, so on overflow the cache is
// simply reset (recompiling is cheap, unbounded growth is not).
const compileCacheCap = 4096

// compiledFor returns the cached compilation of p, compiling on first use.
// A cached ok=false entry is only trusted while the graph's interner
// universes match its stamp: a pattern deemed unmatchable because a label
// was unknown must be recompiled after AddNode/AddEdge interns it (the
// dynamic setting of Section VII). ok=true entries stay valid forever —
// interned IDs are stable — with nodeOK handling nodes added later via the
// nbound fallback.
func (m *Matcher) compiledFor(p *Pattern) *compiled {
	m.cacheMu.RLock()
	c, hit := m.cache[p]
	m.cacheMu.RUnlock()
	if hit && (c.ok || c.universes == m.g.UniverseSizes()) {
		return c
	}
	fresh := m.compile(p)
	if !fresh.ok {
		fresh.universes = m.g.UniverseSizes()
	}
	m.cacheMu.Lock()
	if m.cache == nil {
		m.cache = make(map[*Pattern]*compiled)
	} else if len(m.cache) >= compileCacheCap {
		clear(m.cache)
	}
	m.cache[p] = &fresh
	m.cacheMu.Unlock()
	return &fresh
}

// nodeOK reports whether graph node v can be the image of pattern node u.
func (c *compiled) nodeOK(g *graph.Graph, u int, v graph.NodeID) bool {
	if int(v) < c.nbound {
		if !c.nodeBits[u].Has(v) {
			return false
		}
	} else if g.LabelIDOf(v) != c.labels[u] {
		return false
	}
	for _, lit := range c.lits[u] {
		if !g.HasLiteral(v, lit.Key, lit.Val) {
			return false
		}
	}
	return true
}

// MatchAt reports whether p covers graph node v at the focus.
func (m *Matcher) MatchAt(p *Pattern, v graph.NodeID) bool {
	c := m.compiledFor(p)
	if !c.ok || !c.nodeOK(m.g, c.focus, v) {
		return false
	}
	found := false
	m.search(c, v, func(*searchScratch) bool {
		found = true
		return false // stop at first embedding
	})
	return found
}

// CoveredEdgeBitsAt adds to into the graph edges matched by any pattern edge
// in any embedding of p anchored at v (up to EmbedCap embeddings), and
// reports whether at least one embedding exists. This is the hot-path form:
// callers accumulate P_E over many anchors into one pooled accumulator,
// which keeps the IDs as a duplicate-free list. CoveredEdgesAt adapts it to
// the map representation.
func (m *Matcher) CoveredEdgeBitsAt(p *Pattern, v graph.NodeID, into *graph.EdgeAcc) bool {
	c := m.compiledFor(p)
	if !c.ok || !c.nodeOK(m.g, c.focus, v) {
		return false
	}
	count := 0
	m.search(c, v, func(s *searchScratch) bool {
		// Every pattern edge is either some position's anchor (tree) edge or
		// was verified when its later endpoint was placed; search recorded
		// the matched graph edge for both, so the union needs no edge-index
		// probes.
		for pos := 1; pos < len(s.treeID); pos++ {
			into.Add(s.treeID[pos])
			for _, id := range s.extraID[pos] {
				into.Add(id)
			}
		}
		count++
		return m.EmbedCap == 0 || count < m.EmbedCap
	})
	return count > 0
}

// CoveredEdgesAt is CoveredEdgeBitsAt in the map representation, kept for
// the cold paths (verification, baselines, public API).
func (m *Matcher) CoveredEdgesAt(p *Pattern, v graph.NodeID) (graph.EdgeSet, bool) {
	acc := graph.AcquireEdgeAcc(0)
	defer acc.Release()
	if !m.CoveredEdgeBitsAt(p, v, acc) {
		return nil, false
	}
	return m.g.EdgeSetOfIDs(acc.IDs()), true
}

// CoverAmong returns the subset of candidates covered by p at the focus, in
// input order.
func (m *Matcher) CoverAmong(p *Pattern, candidates []graph.NodeID) []graph.NodeID {
	c := m.compiledFor(p)
	if !c.ok {
		return nil
	}
	var covered []graph.NodeID
	for _, v := range candidates {
		if !c.nodeOK(m.g, c.focus, v) {
			continue
		}
		found := false
		m.search(c, v, func(*searchScratch) bool { found = true; return false })
		if found {
			covered = append(covered, v)
		}
	}
	return covered
}

// FocusCandidates returns all graph nodes that satisfy the focus node's label
// and literals — the superset of nodes p can cover.
func (m *Matcher) FocusCandidates(p *Pattern) []graph.NodeID {
	c := m.compiledFor(p)
	if !c.ok {
		return nil
	}
	var out []graph.NodeID
	for _, v := range m.g.NodesWithLabelID(c.labels[c.focus]) {
		if c.nodeOK(m.g, c.focus, v) {
			out = append(out, v)
		}
	}
	return out
}

// Matches returns every node p covers in the whole graph, sorted. This is the
// P(u_o, G) evaluation used by the case studies (pattern queries); the FGS
// algorithms themselves only ever evaluate coverage over group nodes.
func (m *Matcher) Matches(p *Pattern) []graph.NodeID {
	covered := m.CoverAmong(p, m.FocusCandidates(p))
	sort.Slice(covered, func(i, j int) bool { return covered[i] < covered[j] })
	return covered
}

// searchScratch is the per-search working state: the partial assignment plus
// epoch-stamped used-marks over the graph's node space (stamp[v] == epoch
// means v is an image of an already-placed pattern node). Unmarking during
// backtracking writes stamp[v] = 0, which can never equal the epoch (epoch
// >= 1), so a search leaves no state the next epoch could misread. Each
// concurrent search (SumGen's scoring workers, fgsd's concurrent requests)
// acquires its own scratch from searchPool.
type searchScratch struct {
	assign []graph.NodeID
	stamp  []uint32
	epoch  uint32
	// Matched graph-edge IDs, maintained by search so emit callbacks can
	// union covered edges without re-resolving (pattern edge -> graph edge)
	// through the edge index per embedding. treeID[i] is the edge matched by
	// order[i]'s anchor edge (treeID[0] unused); extraID[i] holds the edges
	// matched by the non-tree pattern edges verified when placing order[i].
	treeID  []graph.EdgeID
	extraID [][]graph.EdgeID
	// backSrc[c.backOff[pos]+i] caches, per recursion level, the fixed-side
	// adjacency list for back edge i of position pos: that endpoint is
	// already mapped and stays put for the whole candidate loop, so its
	// (usually short) list is loaded once and scanned in-cache per candidate.
	backSrc [][]graph.Edge
	// isect[pos] is position pos's candidate intersection state (see
	// intersect), valid for the search whose epoch it carries.
	isect []anchorIndex
}

// searchPool recycles search scratch package-wide. A pool per Matcher kept
// one node-space stamp array alive per matcher until the next GC, and fgsd
// builds a matcher per request. A scratch serves any graph: acquireSearch
// grows the stamps to the graph's node space, and a larger array from a
// bigger graph is only read below NumNodes.
var searchPool sync.Pool

// acquireSearch returns a scratch with assign sized for n pattern nodes,
// backSrc sized for the pattern's nback back edges, and stamps covering the
// graph's node space, at a fresh epoch.
func (m *Matcher) acquireSearch(n, nback int) *searchScratch {
	s, _ := searchPool.Get().(*searchScratch)
	if s == nil {
		s = &searchScratch{}
	}
	if cap(s.assign) < n {
		s.assign = make([]graph.NodeID, n)
	} else {
		s.assign = s.assign[:n]
	}
	if cap(s.treeID) < n {
		s.treeID = make([]graph.EdgeID, n)
	} else {
		s.treeID = s.treeID[:n]
	}
	if cap(s.extraID) < n {
		grown := make([][]graph.EdgeID, n)
		copy(grown, s.extraID[:cap(s.extraID)])
		s.extraID = grown
	} else {
		s.extraID = s.extraID[:n]
	}
	if cap(s.isect) < n {
		grown := make([]anchorIndex, n)
		copy(grown, s.isect[:cap(s.isect)])
		s.isect = grown
	} else {
		s.isect = s.isect[:n]
	}
	if cap(s.backSrc) < nback {
		s.backSrc = make([][]graph.Edge, nback)
	} else {
		s.backSrc = s.backSrc[:nback]
	}
	if nn := m.g.NumNodes(); len(s.stamp) < nn {
		grown := make([]uint32, nn)
		copy(grown, s.stamp)
		s.stamp = grown
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		all := s.isect[:cap(s.isect)]
		for i := range all {
			all[i].epoch = 0
		}
		s.epoch = 1
	}
	return s
}

// Candidate intersection. A position's candidates come from its anchor
// edge: the adjacency list of the anchor's image, filtered by the edge
// label. When the position also has back edges, every candidate must appear
// in each back edge's fixed-side list (backSrc) as well. At a hub the anchor
// list runs to thousands of entries while a back edge's list, the adjacency
// of an ordinary node, holds a handful; the plain scan then rejects almost
// every candidate on the back-edge check. intersect instead walks the short
// list and locates each entry in the anchor list through an index, then
// hands the hits to the unchanged candidate loop in anchor-list order. The
// loop therefore sees the same candidates in the same order as the plain
// scan, less those the plain scan would have rejected on that back edge, so
// embeddings are enumerated in the same order; under EmbedCap, which keeps
// the first embeddings found, P_E is unchanged too.
//
// intersectMinList and intersectRatio gate it: the anchor list must hold at
// least intersectMinList entries and at least intersectRatio times as many
// as the shortest back-edge list. Both were chosen on
// BenchmarkMatchHubClosingEdge.
const (
	intersectMinList = 32
	intersectRatio   = 4
)

// anchorIndex is one position's intersection state. The index maps a
// neighbour to its entry's offset in the anchor list of from (the anchor
// image it was built for), over the entries with the anchor edge's label; it
// is built on a position's first intersecting visit in a search and rebuilt
// only when the anchor image changes. It is an open-addressing table with
// linear probing: keys hold neighbour+1 (0 = empty), vals the offsets.
type anchorIndex struct {
	epoch uint32 // the search epoch it was built in; stale otherwise
	from  graph.NodeID
	shift uint8 // 32 - log2(len(keys))
	keys  []uint32
	vals  []int32
	// hits and cands are the current visit's matches: offsets in ascending
	// order and the anchor-list entries at them.
	hits  []int32
	cands []graph.Edge
}

// build indexes the entries of list with the given label.
func (ix *anchorIndex) build(list []graph.Edge, label graph.LabelID) {
	size, shift := 8, uint8(29)
	for size < 2*len(list) {
		size, shift = size*2, shift-1
	}
	if cap(ix.keys) < size {
		ix.keys, ix.vals = make([]uint32, size), make([]int32, size)
	} else {
		ix.keys, ix.vals = ix.keys[:size], ix.vals[:size]
		clear(ix.keys)
	}
	ix.shift = shift
	mask := uint32(size - 1)
	for i, e := range list {
		if e.Label != label {
			continue
		}
		key := uint32(e.To) + 1
		h := (key * 0x9E3779B1) >> shift
		for ix.keys[h] != 0 {
			h = (h + 1) & mask
		}
		ix.keys[h], ix.vals[h] = key, int32(i)
	}
}

// lookup returns v's offset in the indexed list, or -1.
func (ix *anchorIndex) lookup(v graph.NodeID) int32 {
	key := uint32(v) + 1
	mask := uint32(len(ix.keys) - 1)
	for h := (key * 0x9E3779B1) >> ix.shift; ; h = (h + 1) & mask {
		switch ix.keys[h] {
		case key:
			return ix.vals[h]
		case 0:
			return -1
		}
	}
}

// intersect returns, in list order, the entries of list (the anchor list of
// from) with the given label whose neighbour appears in short with
// shortLabel.
func (s *searchScratch) intersect(pos int, from graph.NodeID, list []graph.Edge, label graph.LabelID, short []graph.Edge, shortLabel graph.LabelID) []graph.Edge {
	ix := &s.isect[pos]
	if ix.epoch != s.epoch || ix.from != from {
		ix.build(list, label)
		ix.epoch, ix.from = s.epoch, from
	}
	hits := ix.hits[:0]
	for _, e := range short {
		if e.Label != shortLabel {
			continue
		}
		if at := ix.lookup(e.To); at >= 0 {
			hits = append(hits, at)
		}
	}
	slices.Sort(hits)
	cands := ix.cands[:0]
	for _, at := range hits {
		cands = append(cands, list[at])
	}
	ix.hits, ix.cands = hits, cands
	return cands
}

// search runs anchored backtracking. emit is called for each embedding found
// with the live scratch (s.assign maps pattern node -> graph node, s.treeID
// and s.extraID carry the matched graph-edge IDs); returning false stops the
// search.
func (m *Matcher) search(c *compiled, anchor graph.NodeID, emit func(*searchScratch) bool) {
	n := len(c.labels)
	s := m.acquireSearch(n, c.nback)
	defer searchPool.Put(s)
	assign, stamp, epoch := s.assign, s.stamp, s.epoch
	assign[c.order[0]] = anchor
	stamp[anchor] = epoch
	var embeddings, expansions, prunes int64
	defer func() {
		m.searches.Inc()
		m.embeddings.Add(embeddings)
		m.expansions.Add(expansions)
		m.prunes.Add(prunes)
	}()
	var rec func(pos int) bool
	rec = func(pos int) bool {
		if pos == n {
			embeddings++
			return emit(s)
		}
		u := c.order[pos]
		a := c.anchorOf[pos]
		backEdges := c.back[pos]
		// nodeOK's checks, hoisted and unrolled: this loop runs once per
		// adjacency entry of every expanded node, and the call overhead is
		// measurable at the million-node tier.
		uBits := c.nodeBits[u]
		uLits := c.lits[u]
		uLabel := c.labels[u]
		nbound := c.nbound
		from := assign[a.other]
		// Hoist each back edge's fixed-side adjacency: the earlier-mapped
		// endpoint w doesn't move during the candidate loop, and in both
		// orientations the list entry's To field carries the candidate
		// endpoint, so verification below is one in-cache scan per candidate
		// instead of an edge-index probe.
		boff := c.backOff[pos]
		shortest := -1
		for i, e := range backEdges {
			w := assign[e.other]
			if e.out {
				s.backSrc[boff+i] = m.g.In(w)
			} else {
				s.backSrc[boff+i] = m.g.Out(w)
			}
			if shortest < 0 || len(s.backSrc[boff+i]) < len(s.backSrc[boff+shortest]) {
				shortest = i
			}
		}
		// Candidates come from the anchor edge: if the edge leaves u, u's
		// image must have an edge to from's image, i.e. scan In(from);
		// otherwise scan Out(from).
		var cands []graph.Edge
		if a.out {
			cands = m.g.In(from)
		} else {
			cands = m.g.Out(from)
		}
		if shortest >= 0 && len(cands) >= intersectMinList {
			if short := s.backSrc[boff+shortest]; intersectRatio*len(short) <= len(cands) {
				cands = s.intersect(pos, from, cands, a.label, short, backEdges[shortest].label)
			}
		}
		for _, ge := range cands {
			if ge.Label != a.label {
				continue
			}
			v := ge.To
			if stamp[v] == epoch {
				prunes++
				continue
			}
			if int(v) < nbound {
				if !uBits.Has(v) {
					prunes++
					continue
				}
			} else if m.g.LabelIDOf(v) != uLabel {
				prunes++
				continue
			}
			litOK := true
			for _, lit := range uLits {
				if !m.g.HasLiteral(v, lit.Key, lit.Val) {
					litOK = false
					break
				}
			}
			if !litOK {
				prunes++
				continue
			}
			// Verify every other pattern edge between u and mapped nodes,
			// recording the matched graph edges so emit needs no lookups.
			ok := true
			extra := s.extraID[pos][:0]
			for i, e := range backEdges {
				var id graph.EdgeID
				found := false
				if l := s.backSrc[boff+i]; len(l) <= 32 {
					for _, e2 := range l {
						if e2.To == v && e2.Label == e.label {
							id, found = e2.ID, true
							break
						}
					}
				} else if e.out {
					id, found = m.g.EdgeIDBetween(v, assign[e.other], e.label)
				} else {
					id, found = m.g.EdgeIDBetween(assign[e.other], v, e.label)
				}
				if !found {
					ok = false
					break
				}
				extra = append(extra, id)
			}
			s.extraID[pos] = extra
			if !ok {
				prunes++
				continue
			}
			expansions++
			assign[u] = v
			s.treeID[pos] = ge.ID
			stamp[v] = epoch
			cont := rec(pos + 1)
			stamp[v] = 0
			if !cont {
				return false
			}
		}
		return true
	}
	rec(1)
}
