package core

import (
	"fmt"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/mining"
	"github.com/cwru-db/fgs/internal/pattern"
	"github.com/cwru-db/fgs/internal/submod"
)

// Online implements Online-APXFGS (Section VI, Fig. 5): it consumes the
// group nodes as a stream, interleaving
//
//   - streaming fair submodular selection (accept / swap / reject with
//     per-group buckets, the ¼-approximation machinery of submod.Streamer),
//     and
//   - localized pattern maintenance (procedure UpdateP): whenever a node
//     enters V_p, candidates are mined from that node's E_v^r only, then the
//     pattern set is greedily extended while |P| < k, or repaired by the
//     best-in / worst-out swap that keeps V_p covered.
//
// After the stream, PostSelect tops up groups below their lower bounds from
// the buckets (Fig. 5 lines 11-12). The combined guarantee is the
// (¼, ln n + θ)-approximation of Theorem 6.
type Online struct {
	g      *graph.Graph
	groups *submod.Groups
	cfg    Config
	er     *mining.ErCache
	sel    *submod.Streamer

	patterns []PatternInfo
	util     submod.Utility

	run *runObs
	// candidates and windows accumulate across Process calls; phase timings
	// accumulate in run (see Stats).
	candidates int
	windows    int
}

// NewOnline prepares a streaming summarizer. The utility's state is owned by
// the selector from now on. cfg.K > 0 bounds the pattern set; K = 0 leaves
// it unbounded.
func NewOnline(g *graph.Graph, groups *submod.Groups, util submod.Utility, cfg Config) *Online {
	cfg = cfg.withDefaults()
	run := startRun(cfg.Obs, "online")
	o := &Online{
		g:      g,
		groups: groups,
		cfg:    cfg,
		er:     mining.NewErCache(g, cfg.R),
		sel:    submod.NewStreamer(groups, util, cfg.N),
		util:   util,
		run:    run,
	}
	run.register(o.er)
	run.register(o.sel)
	return o
}

// Process consumes one arriving group node (one stream window).
func (o *Online) Process(v graph.NodeID) {
	o.windows++
	sp := o.run.phase(PhaseSelect)
	res := o.sel.Process(v)
	sp.End()
	switch res.Decision {
	case submod.Accepted:
		o.updateP(v)
	case submod.Swapped:
		o.pruneAfterEviction()
		o.updateP(v)
	}
}

// ProcessAll streams every node of the slice in order.
func (o *Online) ProcessAll(nodes []graph.NodeID) {
	for _, v := range nodes {
		o.Process(v)
	}
}

// updateP implements procedure UpdateP (Fig. 6) for one newly selected node.
func (o *Online) updateP(v graph.NodeID) {
	sp := o.run.phase(PhaseMine)
	mcfg := o.cfg.Mining
	mcfg.MaxPatterns = o.cfg.PerNodePatterns
	// Localized mining from E_v^r; coverage is evaluated over the current
	// selection (the summary describes exactly the selected nodes), but the
	// edge/C_P scoring stays local to v — the paper's per-node cost bound
	// O(|E_v^r| + N_v·T_I). Finish's global re-scoring repairs the totals.
	mcfg.ScoreAnchorsOnly = true
	cands := mining.SumGen(o.g, []graph.NodeID{v}, o.sel.Selected(), mcfg, o.er)
	o.candidates += len(cands)
	sp.End()

	sp = o.run.phase(PhaseSummarize)
	defer sp.End()

	if o.coveredSet().Has(v) {
		return // an existing pattern already covers the newcomer
	}

	// While below the pattern budget, greedily add best-ratio candidates
	// covering v (Fig. 6 lines 2-5).
	if o.cfg.K == 0 || len(o.patterns) < o.cfg.K {
		best := o.bestFeasible(cands, v)
		if best != nil {
			o.patterns = append(o.patterns, *best)
			return
		}
	}
	if o.cfg.K == 0 {
		return // nothing feasible covers v
	}

	// Budget exhausted: swap in the incoming candidate P⁺ with the best
	// selected-cover/cost ratio for the outgoing pattern P⁻ with the worst,
	// among pairs whose swap keeps every selected node covered and the
	// coverage feasible (Fig. 6 lines 6-15). Feasibility uses a coverage
	// reference count so each pair costs O(|P⁻ cover| + |P⁺ cover|).
	selected := graph.NodeSetOf(o.sel.Selected())
	refs := make(map[graph.NodeID]int)
	for _, pi := range o.patterns {
		for _, u := range pi.Covered {
			refs[u]++
		}
	}
	coveredTotal := len(refs)

	var bestIn *mining.Candidate
	worstOut := -1
	for _, cand := range cands {
		covers := false
		for _, u := range cand.Covered {
			if u == v {
				covers = true
				break
			}
		}
		if !covers {
			continue
		}
		candSet := graph.NodeSetOf(cand.Covered)
		gain := 0
		for _, u := range cand.Covered {
			if refs[u] == 0 {
				gain++
			}
		}
		for pi := range o.patterns {
			// Nodes only patterns[pi] covers are lost unless cand re-covers
			// them; losing a selected node disqualifies the swap.
			loss := 0
			feasible := true
			for _, u := range o.patterns[pi].Covered {
				if refs[u] == 1 && !candSet.Has(u) {
					if selected.Has(u) {
						feasible = false
						break
					}
					loss++
				}
			}
			if !feasible || coveredTotal-loss+gain > o.cfg.N {
				continue
			}
			replace := bestIn == nil
			if !replace {
				inBetter := betterGain(countIn(cand.Covered, selected), cand.CP, countIn(bestIn.Covered, selected), bestIn.CP)
				sameIn := cand == bestIn
				outWorse := worseRatio(o.patterns[pi], o.patterns[worstOut], selected)
				replace = inBetter || (sameIn && outWorse)
			}
			if replace {
				bestIn = cand
				worstOut = pi
			}
		}
	}
	if bestIn != nil {
		o.patterns[worstOut] = infoOf(o.g, bestIn)
	}
}

// bestFeasible returns the candidate covering v with the best ratio gain
// that keeps the pattern-set coverage feasible, or nil.
func (o *Online) bestFeasible(cands []*mining.Candidate, v graph.NodeID) *PatternInfo {
	cs := newCoverState(o.cfg.N)
	for _, pi := range o.patterns {
		cs.add(&mining.Candidate{Covered: pi.Covered})
	}
	selected := graph.NodeSetOf(o.sel.Selected())
	var best *mining.Candidate
	bestNew := 0
	for _, cand := range cands {
		covers := false
		for _, u := range cand.Covered {
			if u == v {
				covers = true
				break
			}
		}
		if !covers || !cs.extendable(cand) {
			continue
		}
		n := countIn(cand.Covered, selected)
		if best == nil || betterGain(n, cand.CP, bestNew, best.CP) {
			best = cand
			bestNew = n
		}
	}
	if best == nil {
		return nil
	}
	pi := infoOf(o.g, best)
	return &pi
}

// worseRatio reports whether pattern a has a strictly worse selected-cover /
// cost ratio than b (the eviction preference of Fig. 6 line 14).
func worseRatio(a, b PatternInfo, selected graph.NodeSet) bool {
	return betterGain(countIn(b.Covered, selected), b.CP, countIn(a.Covered, selected), a.CP)
}

func countIn(nodes []graph.NodeID, set graph.NodeSet) int {
	n := 0
	for _, v := range nodes {
		if set.Has(v) {
			n++
		}
	}
	return n
}

// pruneAfterEviction drops patterns that no longer cover any selected node.
func (o *Online) pruneAfterEviction() {
	selected := graph.NodeSetOf(o.sel.Selected())
	kept := o.patterns[:0]
	for _, pi := range o.patterns {
		if countIn(pi.Covered, selected) > 0 {
			kept = append(kept, pi)
		}
	}
	o.patterns = kept
}

// coveredSet returns the union cover of the current pattern set.
func (o *Online) coveredSet() graph.NodeSet {
	s := graph.NewNodeSet(0)
	for _, pi := range o.patterns {
		for _, v := range pi.Covered {
			s.Add(v)
		}
	}
	return s
}

// Finish runs post-processing (PostSelect for deficient groups, plus pattern
// updates for the nodes it adds) and returns the final r-summary.
func (o *Online) Finish() (*Summary, error) {
	sp := o.run.phase(PhaseSelect)
	added := o.sel.PostSelect()
	sp.End()
	for _, v := range added {
		o.updateP(v)
	}
	// Any selected node still uncovered (possible when per-node mining was
	// capped) gets one more localized attempt.
	covered := o.coveredSet()
	var uncovered []graph.NodeID
	for _, v := range o.sel.Selected() {
		if !covered.Has(v) {
			o.updateP(v)
		}
	}
	covered = o.coveredSet()
	for _, v := range o.sel.Selected() {
		if !covered.Has(v) {
			uncovered = append(uncovered, v)
		}
	}
	if o.cfg.K > 0 && len(o.patterns) > o.cfg.K {
		return nil, fmt.Errorf("core: online pattern budget violated: %d > %d", len(o.patterns), o.cfg.K)
	}
	o.rescoreAll()
	o.run.reg.Add("fgs_online_windows_total", "Stream windows processed by Online-APXFGS.", nil, int64(o.windows))
	return buildSummary(o.cfg, o.patterns, o.er, o.util, uncovered, o.run.finish(o.candidates, o.windows)), nil
}

// rescoreAll re-evaluates every pattern against the final selection: covers
// recorded during the stream were anchored to earlier, smaller selections
// and may be stale after swaps. Patterns that no longer cover any selected
// node are dropped.
func (o *Online) rescoreAll() {
	selected := o.sel.Selected()
	m := pattern.NewMatcher(o.g, o.cfg.Mining.EmbedCap)
	edges := graph.AcquireEdgeAcc(o.g.EdgeIDBound())
	defer edges.Release()
	kept := o.patterns[:0]
	for _, pi := range o.patterns {
		covered := sortNodes(m.CoverAmong(pi.P, selected))
		if len(covered) == 0 {
			continue
		}
		edges.Reset()
		for _, v := range covered {
			m.CoveredEdgeBitsAt(pi.P, v, edges)
		}
		cp := o.er.UnionAndNotCount(covered, edges.Bits())
		kept = append(kept, PatternInfo{P: pi.P, Covered: covered, CoveredEdges: o.g.EdgeSetOfIDs(edges.IDs()), CP: cp})
	}
	o.patterns = kept
}

// Stats exposes the accumulated phase timings so far (safe to call
// mid-stream: only completed phases are counted).
func (o *Online) Stats() Stats { return o.run.stats(o.candidates, o.windows) }

// Selected returns the current streaming selection.
func (o *Online) Selected() []graph.NodeID { return o.sel.Selected() }
