package core

import (
	"fmt"
	"time"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/mining"
	"github.com/cwru-db/fgs/internal/pattern"
	"github.com/cwru-db/fgs/internal/submod"
)

// EdgeUpdate is one inserted edge of a batch ΔE. Both endpoints must already
// exist in the graph.
type EdgeUpdate struct {
	From  graph.NodeID
	To    graph.NodeID
	Label string
}

// Maintainer implements Inc-FGS (Section VII, Fig. 7): it keeps an
// r-summary consistent under batches of edge insertions without recomputing
// from scratch. Each batch is processed by
//
//  1. locating the affected group nodes — those whose r-hop neighborhood
//     the new edges touch — and invalidating their cached E_v^r;
//  2. incrementally refreshing the selection V_p by streaming the affected
//     (and not yet selected) group nodes through the ¼-competitive streaming
//     selector (procedure IncFairSel);
//  3. dropping patterns that no longer cover selected nodes, re-scoring
//     patterns whose covered neighborhoods changed, and re-mining only from
//     the E_v^r of newly selected or newly uncovered nodes (the paper's
//     data-locality argument for subgraph isomorphism);
//  4. greedily re-covering as in APXFGS and rebuilding corrections.
type Maintainer struct {
	g      *graph.Graph
	groups *submod.Groups
	cfg    Config
	er     *mining.ErCache
	sel    *submod.Streamer
	util   submod.Utility

	patterns []PatternInfo
	matcher  *pattern.Matcher

	run *runObs
	// candidates and windows (applied batches) accumulate across ApplyDelta
	// calls; phase timings accumulate in run.
	candidates int
	windows    int
}

// NewMaintainer builds the maintainer and computes the initial summary by
// streaming all current group nodes (so subsequent batches are handled
// uniformly). The utility's state is owned by the maintainer.
func NewMaintainer(g *graph.Graph, groups *submod.Groups, util submod.Utility, cfg Config) (*Maintainer, *Summary) {
	cfg = cfg.withDefaults()
	run := startRun(cfg.Obs, "incfgs")
	m := &Maintainer{
		g:       g,
		groups:  groups,
		cfg:     cfg,
		er:      mining.NewErCache(g, cfg.R),
		sel:     submod.NewStreamer(groups, util, cfg.N),
		util:    util,
		matcher: pattern.NewMatcher(g, cfg.Mining.EmbedCap),
		run:     run,
	}
	run.register(m.er)
	run.register(m.sel)
	sp := run.phase(PhaseSelect)
	for _, v := range groups.All() {
		m.sel.Process(v)
	}
	m.sel.PostSelect()
	sp.End()
	m.recover(m.sel.Selected())
	return m, m.Summary()
}

// Delta is a batch of graph updates: edge insertions and deletions. The
// paper's Section VII covers insertions; deletion maintenance is this
// implementation's extension (same machinery: locate the affected region,
// rescore touched patterns, re-mine locally).
type Delta struct {
	Insert []EdgeUpdate
	Delete []EdgeUpdate
}

// ApplyBatch inserts the edges of ΔE and updates the summary. Edges whose
// insertion fails (missing endpoints, duplicates) are reported and the rest
// still applied.
func (m *Maintainer) ApplyBatch(batch []EdgeUpdate) (*Summary, error) {
	return m.ApplyDelta(Delta{Insert: batch})
}

// ApplyDelta applies a batch of insertions and deletions and updates the
// summary. Failed updates are reported via the error while the rest are
// still applied.
func (m *Maintainer) ApplyDelta(delta Delta) (*Summary, error) {
	s, _, err := m.Apply(delta)
	return s, err
}

// Apply is ApplyDelta reporting additionally how many updates of the batch
// actually changed the graph. The serving layer keys its result cache on a
// graph epoch and uses the count to decide whether a batch must advance it:
// a fully rejected batch (duplicate inserts, missing endpoints) leaves the
// graph — and therefore every cached response — valid.
func (m *Maintainer) Apply(delta Delta) (*Summary, int, error) {
	var firstErr error
	endpoints := make([]graph.NodeID, 0, (len(delta.Insert)+len(delta.Delete))*2)
	applied := 0
	for _, e := range delta.Insert {
		if err := m.g.AddEdge(e.From, e.To, e.Label); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: batch insert: %w", err)
			}
			continue
		}
		applied++
		endpoints = append(endpoints, e.From, e.To)
	}
	for _, e := range delta.Delete {
		if err := m.g.RemoveEdge(e.From, e.To, e.Label); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: batch delete: %w", err)
			}
			continue
		}
		applied++
		endpoints = append(endpoints, e.From, e.To)
	}
	if applied == 0 {
		return m.Summary(), 0, firstErr
	}
	m.windows++

	// Affected region: every node within r of an inserted endpoint has a
	// changed E_v^r.
	affected := m.g.RHopNodesOf(endpoints, m.cfg.R)
	m.er.Invalidate(affected)

	// Group nodes in the affected region: candidates for (re)selection.
	var affectedGroup []graph.NodeID
	for _, v := range affected {
		if _, ok := m.groups.IndexOf(v); ok {
			affectedGroup = append(affectedGroup, v)
		}
	}
	if len(affectedGroup) == 0 {
		return m.Summary(), applied, firstErr // Fig. 7 line 2: summary unchanged
	}

	// Incremental selection: stream affected group nodes; their marginal
	// gains may have improved with the new edges.
	sp := m.run.phase(PhaseSelect)
	selectedBefore := graph.NodeSetOf(m.sel.Selected())
	for _, v := range affectedGroup {
		if !selectedBefore.Has(v) {
			m.sel.Process(v)
		}
	}
	m.sel.PostSelect()
	sp.End()
	selected := m.sel.Selected()
	selectedSet := graph.NodeSetOf(selected)

	// Refresh patterns: drop those covering no selected node (Fig. 7 lines
	// 5-6); re-verify coverage and re-score those touching the affected
	// region, since new edges can both create matches and change C_P.
	affectedSet := graph.NodeBitsOf(affected)
	sp = m.run.phase(PhaseSummarize)
	kept := m.patterns[:0]
	for _, pi := range m.patterns {
		touches := false
		for _, v := range pi.Covered {
			if affectedSet.Has(v) {
				touches = true
				break
			}
		}
		if touches {
			pi = m.rescore(pi.P)
		}
		if countIn(pi.Covered, selectedSet) > 0 {
			kept = append(kept, pi)
		}
	}
	m.patterns = kept
	sp.End()

	m.recover(selected)
	return m.Summary(), applied, firstErr
}

// rescore re-evaluates a pattern's cover, covered edges, and C_P against the
// current graph and selection.
func (m *Maintainer) rescore(p *pattern.Pattern) PatternInfo {
	covered := sortNodes(m.matcher.CoverAmong(p, m.sel.Selected()))
	edges := graph.AcquireEdgeAcc(m.g.EdgeIDBound())
	defer edges.Release()
	for _, v := range covered {
		m.matcher.CoveredEdgeBitsAt(p, v, edges)
	}
	cp := m.er.UnionAndNotCount(covered, edges.Bits())
	return PatternInfo{P: p, Covered: covered, CoveredEdges: m.g.EdgeSetOfIDs(edges.IDs()), CP: cp}
}

// recover restores the invariant V_p ⊆ P_V by mining locally around the
// uncovered selected nodes and greedily extending the pattern set.
func (m *Maintainer) recover(selected []graph.NodeID) {
	coveredSet := graph.NewNodeSet(0)
	for _, pi := range m.patterns {
		for _, v := range pi.Covered {
			coveredSet.Add(v)
		}
	}
	var uncovered []graph.NodeID
	for _, v := range selected {
		if !coveredSet.Has(v) {
			uncovered = append(uncovered, v)
		}
	}
	if len(uncovered) == 0 {
		return
	}
	sp := m.run.phase(PhaseMine)
	mcfg := m.cfg.Mining
	mcfg.MaxPatterns = m.cfg.PerNodePatterns * len(uncovered)
	cands := mining.SumGen(m.g, uncovered, selected, mcfg, m.er)
	m.candidates += len(cands)
	sp.End()

	sp = m.run.phase(PhaseSummarize)
	defer sp.End()

	// Seed the greedy with the existing patterns' coverage so feasibility is
	// judged against the whole summary.
	cs := newCoverState(m.cfg.N)
	for _, pi := range m.patterns {
		cs.add(&mining.Candidate{Covered: pi.Covered})
	}
	remaining := graph.NodeSetOf(uncovered)
	used := make([]bool, len(cands))
	for remaining.Len() > 0 {
		if m.cfg.K > 0 && len(m.patterns) >= m.cfg.K {
			break
		}
		best := -1
		bestNew, bestCP := 0, 0
		for i, cand := range cands {
			if used[i] {
				continue
			}
			newAnchors := 0
			for _, v := range cand.Covered {
				if remaining.Has(v) {
					newAnchors++
				}
			}
			if newAnchors == 0 || !cs.extendable(cand) {
				continue
			}
			if best < 0 || betterGain(newAnchors, cand.CP, bestNew, bestCP) {
				best, bestNew, bestCP = i, newAnchors, cand.CP
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		cand := cands[best]
		cs.add(cand)
		for _, v := range cand.Covered {
			remaining.Remove(v)
		}
		m.patterns = append(m.patterns, infoOf(m.g, cand))
	}
}

// Summary materializes the current r-summary.
func (m *Maintainer) Summary() *Summary {
	selected := m.sel.Selected()
	coveredSet := graph.NewNodeSet(0)
	for _, pi := range m.patterns {
		for _, v := range pi.Covered {
			coveredSet.Add(v)
		}
	}
	var uncovered []graph.NodeID
	for _, v := range selected {
		if !coveredSet.Has(v) {
			uncovered = append(uncovered, v)
		}
	}
	return buildSummary(m.cfg, append([]PatternInfo(nil), m.patterns...), m.er, m.util, uncovered, m.run.stats(m.candidates, m.windows))
}

// Selected exposes the current selection V_p.
func (m *Maintainer) Selected() []graph.NodeID { return m.sel.Selected() }

// TimeBatch is a helper for benchmarks: apply a batch and report elapsed
// time via the run's sanctioned clock.
func (m *Maintainer) TimeBatch(batch []EdgeUpdate) (*Summary, time.Duration, error) {
	start := m.run.clock.Now()
	s, err := m.ApplyBatch(batch)
	return s, m.run.clock.Now().Sub(start), err
}
