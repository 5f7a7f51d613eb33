// Package mining implements procedure SumGen of Section IV: constrained,
// focus-rooted graph-pattern discovery over the r-hop neighborhoods of a set
// of anchor nodes. It grows patterns breadth-first from single-node seeds by
// (a) adding equality literals to the focus and (b) attaching edges observed
// in the anchors' neighborhoods, early-terminating at radius r from the
// focus exactly as the paper prescribes. Grown patterns are deduplicated by
// canonical code and scored with the quantities the FGS algorithms consume:
// covered group nodes, covered edge sets P_E, and the per-pattern correction
// cost C_P = |E^r_{P_V} \ P_E|.
//
// The same growth engine, run without group-bound feasibility filtering and
// ranked by support, doubles as the frequent-subgraph miner behind the GraMi
// baseline (see Frequent).
package mining

import (
	"slices"
	"sort"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/obs"
	"github.com/cwru-db/fgs/internal/pattern"
)

// Config bounds the pattern search space.
type Config struct {
	// Radius is r: the maximum hop distance from the focus to any pattern
	// node, matching the summary's reconstruction horizon.
	Radius int
	// MaxNodes caps pattern size in nodes. Default 5.
	MaxNodes int
	// MaxLiterals caps equality literals on the focus. Default 2.
	MaxLiterals int
	// MaxPatterns caps the number of emitted candidates (N in the paper's
	// cost analysis). Default 200.
	MaxPatterns int
	// MinCover prunes patterns covering fewer than this many anchors.
	// Default 1.
	MinCover int
	// EmbedCap bounds embedding enumeration per (pattern, anchor) when
	// collecting covered edges. 0 picks the default (512); negative means
	// unlimited. Capping trades P_E completeness (uncollected edges land in
	// the corrections, never breaking losslessness) for bounded work at
	// hub anchors, whose embedding counts grow combinatorially.
	EmbedCap int
	// ScoreAnchorsOnly restricts covered-edge sets and C_P to the anchors'
	// neighborhoods instead of every covered universe node. Online-APXFGS
	// sets it: the paper's UpdateP works at node level (cost O(|E_v^r| +
	// N_v·T_I)), and the final summary re-scores patterns globally anyway.
	ScoreAnchorsOnly bool
	// Workers parallelizes SumGen's mine→score pipeline: candidate scoring
	// (coverage evaluation, covered-edge collection, C_P) runs on a pool of
	// this many goroutines with results committed in generation order.
	// 0/1 = fully sequential. Output is byte-identical either way; see
	// runParallel for the determinism argument. Frequent ignores it.
	Workers int
	// Obs receives the engine's runtime counters (queue depth, speculation
	// discards, prunes) and the matcher's search counters. Nil disables
	// collection; mining never reads the clock.
	Obs *obs.Observer
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Radius <= 0 {
		c.Radius = 2
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 5
	}
	if c.MaxLiterals <= 0 {
		c.MaxLiterals = 2
	}
	if c.MaxPatterns <= 0 {
		c.MaxPatterns = 200
	}
	if c.MinCover <= 0 {
		c.MinCover = 1
	}
	switch {
	case c.EmbedCap == 0:
		c.EmbedCap = 512
	case c.EmbedCap < 0:
		c.EmbedCap = 0 // matcher convention: 0 = unlimited
	}
	return c
}

// Candidate is a mined pattern scored against the evaluation universe.
type Candidate struct {
	P *pattern.Pattern
	// Covered is the set of universe nodes covered by P at the focus,
	// sorted — P_V relative to the fixed selection of Eq. (1).
	Covered []graph.NodeID
	// CoveredEdges is P_E restricted to embeddings anchored at covered group
	// nodes — the edges the pattern describes — as a sorted, duplicate-free
	// EdgeID list (convert with Graph.EdgeSetOfIDs at the public-API
	// boundary). A pattern covers a few hundred of the graph's edges, so the
	// list is a small fraction of a graph-wide bitset.
	CoveredEdges []graph.EdgeID
	// CP is the pattern's edge-coverage loss C_P = |E^r_{P_V} \ P_E|.
	CP int
	// Fallback marks the full-literal singleton seeds that guarantee every
	// anchor stays coverable; they carry maximal C_P by construction.
	Fallback bool
}

// CoversAnyOf reports whether the candidate covers at least one node of set.
func (c *Candidate) CoversAnyOf(set graph.NodeSet) bool {
	for _, v := range c.Covered {
		if set.Has(v) {
			return true
		}
	}
	return false
}

// SumGen mines candidate patterns from the r-hop neighborhoods of anchors
// (the selected nodes V_p) and evaluates their coverage over universe — the
// node set the summary describes. In the select-and-summarize pipeline the
// universe is the selection itself: the bilevel formulation of Section IV
// (Eq. 1-4) fixes V_p and asks the patterns to cover and describe exactly
// those nodes, so coverage, covered edges and C_P are all anchored there.
// (Baselines that have no selection pass the whole group universe instead.)
//
// The result always contains, for every anchor, a full-literal fallback
// singleton covering it, so the greedy of APXFGS can always complete the
// cover. Candidates are emitted in generation order (breadth-first by
// pattern size), deterministic for a fixed input.
func SumGen(g *graph.Graph, anchors []graph.NodeID, universe []graph.NodeID, cfg Config, er *ErCache) []*Candidate {
	cfg = cfg.withDefaults()
	if er == nil || er.Radius() != cfg.Radius {
		er = NewErCache(g, cfg.Radius)
	}
	m := pattern.NewMatcher(g, cfg.EmbedCap)
	eng := &engine{
		g:                g,
		m:                m,
		cfg:              cfg,
		er:               er,
		universe:         universe,
		anchors:          anchors,
		anchSet:          graph.NodeSetOf(anchors),
		universeIsAnchor: slices.Equal(universe, anchors),
		seen:             make(map[string]bool),
	}
	if reg := cfg.Obs.GetReg(); reg != nil {
		// Allocated only when a collector is installed: the hot loops guard
		// on e.mm == nil and pay nothing otherwise.
		eng.mm = &miningMetrics{}
		reg.Register(eng.mm)
		reg.Register(m)
	}
	eng.buildTemplates()
	if cfg.Workers > 1 {
		eng.runParallel()
	} else {
		eng.run()
	}
	return eng.out
}

// engine holds the state of one mining run.
type engine struct {
	g        *graph.Graph
	m        *pattern.Matcher
	cfg      Config
	er       *ErCache // nil under skipScore, which never counts C_P
	universe []graph.NodeID
	anchors  []graph.NodeID
	anchSet  graph.NodeSet
	// universeIsAnchor is set when universe and anchors list the same nodes
	// in the same order (APXFGS and k-APXFGS pass V_p as both, and Frequent
	// its universe): score then reuses the coverage the generation loop has
	// already computed over the anchors.
	universeIsAnchor bool

	// templates lists, per node label, the (edgeLabel, otherLabel, outgoing)
	// triples observed in the anchors' r-hop neighborhoods — the only edge
	// extensions worth trying.
	templates map[string][]edgeTemplate

	// queue holds structural (edge) extensions; queueLit holds literal
	// refinements, consumed only when queue is empty so attribute slices of
	// one shape cannot crowd structural variety out of the emission budget.
	queue    []*pattern.Pattern
	queueLit []*pattern.Pattern
	seen     map[string]bool
	out      []*Candidate

	// skipScore skips covered-edge/C_P computation (frequent mining only
	// needs coverage counts); noFallback suppresses the full-literal seeds.
	skipScore  bool
	noFallback bool

	// mm is non-nil only when a metrics collector is installed.
	mm *miningMetrics
}

// edgeTemplate is one observed adjacency shape.
type edgeTemplate struct {
	edgeLabel  string
	otherLabel string
	out        bool
}

func (e *engine) buildTemplates() {
	e.templates = make(map[string][]edgeTemplate)
	type key struct {
		from string
		t    edgeTemplate
	}
	seen := make(map[key]bool)
	edges := e.g.RHopEdgeBitsOf(e.anchors, e.cfg.Radius)
	edges.Iterate(func(id graph.EdgeID) {
		ref := e.g.EdgeRefOf(id)
		fromL := e.g.LabelOf(ref.From)
		toL := e.g.LabelOf(ref.To)
		el := e.g.EdgeLabelName(ref.Label)
		k1 := key{from: fromL, t: edgeTemplate{edgeLabel: el, otherLabel: toL, out: true}}
		if !seen[k1] {
			seen[k1] = true
			e.templates[fromL] = append(e.templates[fromL], k1.t)
		}
		k2 := key{from: toL, t: edgeTemplate{edgeLabel: el, otherLabel: fromL, out: false}}
		if !seen[k2] {
			seen[k2] = true
			e.templates[toL] = append(e.templates[toL], k2.t)
		}
	})
	// Sort each bucket into the canonical extension order. Bitset iteration
	// is already ascending-EdgeID (deterministic without this sort); sorting
	// normalizes the order across graph loads that interleave insertions
	// differently.
	for l := range e.templates {
		sort.Slice(e.templates[l], func(i, j int) bool {
			a, b := e.templates[l][i], e.templates[l][j]
			if a.edgeLabel != b.edgeLabel {
				return a.edgeLabel < b.edgeLabel
			}
			if a.otherLabel != b.otherLabel {
				return a.otherLabel < b.otherLabel
			}
			return !a.out && b.out
		})
	}
}

// fallbackSeeds returns the deduped full-literal fallback singletons in
// anchor order, marking their codes as seen.
func (e *engine) fallbackSeeds() []*pattern.Pattern {
	if e.noFallback {
		return nil
	}
	var seeds []*pattern.Pattern
	for _, v := range e.anchors {
		p := e.fullLiteralPattern(v)
		code := pattern.CanonicalCode(p)
		if e.seen[code] {
			continue
		}
		e.seen[code] = true
		seeds = append(seeds, p)
	}
	return seeds
}

// pushLabelSeeds enqueues a label-only seed for every label occurring among
// the anchors, in sorted label order.
func (e *engine) pushLabelSeeds() {
	labels := map[string]bool{}
	var labelList []string
	for _, v := range e.anchors {
		l := e.g.LabelOf(v)
		if !labels[l] {
			labels[l] = true
			labelList = append(labelList, l)
		}
	}
	sort.Strings(labelList)
	for _, l := range labelList {
		e.push(pattern.NewNodePattern(l))
	}
}

func (e *engine) run() {
	// Fallback seeds first: full-literal singletons per anchor, deduped.
	for _, p := range e.fallbackSeeds() {
		if cand := e.score(p, true, nil); cand != nil {
			e.out = append(e.out, cand)
			if e.mm != nil {
				e.mm.emitted.Inc()
			}
		}
	}

	e.pushLabelSeeds()

	// MaxPatterns budgets grown patterns; fallbacks are always kept so the
	// greedy cover can complete.
	grown := 0
	for (len(e.queue) > 0 || len(e.queueLit) > 0) && grown < e.cfg.MaxPatterns {
		var p *pattern.Pattern
		if len(e.queue) > 0 {
			p = e.queue[0]
			e.queue = e.queue[1:]
		} else {
			p = e.queueLit[0]
			e.queueLit = e.queueLit[1:]
		}
		coveredAnchors := e.m.CoverAmong(p, e.anchors)
		if len(coveredAnchors) < e.cfg.MinCover {
			// Anti-monotone: extensions only shrink coverage; prune subtree.
			if e.mm != nil {
				e.mm.pruned.Inc()
			}
			continue
		}
		if cand := e.score(p, false, coveredAnchors); cand != nil {
			e.out = append(e.out, cand)
			if e.mm != nil {
				e.mm.emitted.Inc()
			}
			grown++
			if grown >= e.cfg.MaxPatterns {
				break
			}
		}
		e.extend(p, coveredAnchors)
	}
}

// push enqueues a structural extension if unseen.
func (e *engine) push(p *pattern.Pattern) {
	code := pattern.CanonicalCode(p)
	if e.seen[code] {
		return
	}
	e.seen[code] = true
	e.queue = append(e.queue, p)
}

// pushLit enqueues a literal refinement if unseen (secondary priority).
func (e *engine) pushLit(p *pattern.Pattern) {
	code := pattern.CanonicalCode(p)
	if e.seen[code] {
		return
	}
	e.seen[code] = true
	e.queueLit = append(e.queueLit, p)
}

// fullLiteralPattern builds the coverage-fallback singleton for a node:
// label plus one literal per attribute.
func (e *engine) fullLiteralPattern(v graph.NodeID) *pattern.Pattern {
	lits := make([]pattern.Literal, 0, len(e.g.Attrs(v)))
	for _, a := range e.g.Attrs(v) {
		lits = append(lits, pattern.Literal{Key: e.g.AttrKeyName(a.Key), Val: e.g.AttrValName(a.Val)})
	}
	return pattern.NewNodePattern(e.g.LabelOf(v), lits...)
}

// score builds the emitted candidate: covered universe nodes, covered
// edges, C_P. coveredAnchors is CoverAmong(p, anchors) when the caller has
// computed it, or nil; score only reads it.
func (e *engine) score(p *pattern.Pattern, fallback bool, coveredAnchors []graph.NodeID) *Candidate {
	var covered []graph.NodeID
	if e.universeIsAnchor && coveredAnchors != nil {
		covered = slices.Clone(coveredAnchors)
	} else {
		covered = e.m.CoverAmong(p, e.universe)
	}
	slices.Sort(covered)
	if len(covered) == 0 {
		return nil
	}
	if e.skipScore {
		return &Candidate{P: p, Covered: covered, Fallback: fallback}
	}
	scoreNodes := covered
	if e.cfg.ScoreAnchorsOnly {
		scoreNodes = nil
		for _, v := range covered {
			if e.anchSet.Has(v) {
				scoreNodes = append(scoreNodes, v)
			}
		}
	}
	// P_E accumulates in a pooled accumulator and leaves it as a sorted
	// list; C_P is one blocked word sweep over the E_v^r operands with the
	// accumulator's bitset as the not operand.
	acc := graph.AcquireEdgeAcc(e.g.EdgeIDBound())
	for _, v := range scoreNodes {
		e.m.CoveredEdgeBitsAt(p, v, acc)
	}
	cp := e.er.UnionAndNotCount(scoreNodes, acc.Bits())
	coveredEdges := acc.Sorted()
	acc.Release()
	return &Candidate{P: p, Covered: covered, CoveredEdges: coveredEdges, CP: cp, Fallback: fallback}
}

// extend generates edge and literal extensions of p. Edge extensions are
// enqueued first: structural variety matters more to edge coverage than
// literal refinements, and the BFS emission budget (MaxPatterns) should not
// be exhausted by attribute slices of the same shape.
func (e *engine) extend(p *pattern.Pattern, coveredAnchors []graph.NodeID) {
	e.extendEdges(p)
	e.extendLiterals(p, coveredAnchors)
}

func (e *engine) extendLiterals(p *pattern.Pattern, coveredAnchors []graph.NodeID) {
	// Literal refinement on the focus, from attribute values frequent among
	// the covered anchors. Rare values (below ~20% support) are skipped:
	// they would slice the shape into near-singleton variants, which the
	// full-literal fallbacks already provide far more cheaply.
	if len(p.Nodes[p.Focus].Literals) < e.cfg.MaxLiterals {
		minSupport := len(coveredAnchors) / 5
		if minSupport < 2 {
			minSupport = 2
		}
		type kv struct{ k, v string }
		counts := map[kv]int{}
		for _, v := range coveredAnchors {
			for _, a := range e.g.Attrs(v) {
				counts[kv{e.g.AttrKeyName(a.Key), e.g.AttrValName(a.Val)}]++
			}
		}
		var lits []kv
		for l, c := range counts {
			if c >= minSupport {
				lits = append(lits, l)
			}
		}
		sort.Slice(lits, func(i, j int) bool {
			if lits[i].k != lits[j].k {
				return lits[i].k < lits[j].k
			}
			return lits[i].v < lits[j].v
		})
		for _, l := range lits {
			lit := pattern.Literal{Key: l.k, Val: l.v}
			if p.HasLiteral(p.Focus, lit) {
				continue
			}
			// Skip a second literal on the same key: equality literals on
			// one key are mutually exclusive.
			dup := false
			for _, existing := range p.Nodes[p.Focus].Literals {
				if existing.Key == lit.Key {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			e.pushLit(p.AddLiteral(p.Focus, lit))
		}
	}
}

func (e *engine) extendEdges(p *pattern.Pattern) {
	// Leaf extensions, bounded by radius and size.
	if len(p.Nodes) < e.cfg.MaxNodes {
		depths := focusDepths(p)
		for u := range p.Nodes {
			if depths[u] >= e.cfg.Radius {
				continue // a new leaf here would exceed radius r
			}
			for _, t := range e.templates[p.Nodes[u].Label] {
				e.push(p.AddLeaf(u, pattern.Node{Label: t.otherLabel}, t.edgeLabel, t.out))
			}
		}
	}
	// Closing edges between existing nodes (no new node, allowed even at
	// the size cap).
	for u := range p.Nodes {
		for w := range p.Nodes {
			if u == w {
				continue
			}
			for _, t := range e.templates[p.Nodes[u].Label] {
				if !t.out || t.otherLabel != p.Nodes[w].Label {
					continue
				}
				if q := p.AddClosingEdge(u, w, t.edgeLabel); q != nil {
					e.push(q)
				}
			}
		}
	}
}

// focusDepths returns each pattern node's undirected hop distance from the
// focus.
func focusDepths(p *pattern.Pattern) []int {
	depth := make([]int, len(p.Nodes))
	for i := range depth {
		depth[i] = -1
	}
	adj := make([][]int, len(p.Nodes))
	for _, ed := range p.Edges {
		adj[ed.From] = append(adj[ed.From], ed.To)
		adj[ed.To] = append(adj[ed.To], ed.From)
	}
	depth[p.Focus] = 0
	queue := []int{p.Focus}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if depth[v] < 0 {
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return depth
}
