package core

import (
	"fmt"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/mining"
	"github.com/cwru-db/fgs/internal/submod"
)

// APXFGS computes an r-summary with the select-and-summarize strategy of
// Section IV (Fig. 3), achieving the (½, ln n)-approximation of Theorem 3:
//
//  1. Selection phase: FairSelect greedily picks V_p, a ½-approximation to
//     the utility-optimal feasible selection.
//  2. Summarization phase: SumGen mines candidate patterns from E^r_{V_p};
//     a greedy loop then repeatedly adds the extendable pattern maximizing
//     |P(u_o,G) ∩ V_p| / C_P until V_p is covered, yielding accumulated loss
//     C_l within ln(n) of optimal for the fixed V_p.
//
// The utility's state is consumed. On return the summary is feasible: group
// coverage within bounds and |P_V| <= n; nodes the greedy could not cover
// without breaking feasibility (possible only in degenerate inputs) are
// reported in Summary.Uncovered.
func APXFGS(g *graph.Graph, groups *submod.Groups, util submod.Utility, cfg Config) (*Summary, error) {
	cfg = cfg.withDefaults()
	run := startRun(cfg.Obs, "apxfgs")

	sp := run.phase(PhaseSelect)
	vp, err := submod.FairSelectObs(groups, util, cfg.N, run.reg)
	sp.End()
	if err != nil {
		run.abort()
		return nil, fmt.Errorf("core: selection phase: %w", err)
	}

	sp = run.phase(PhaseMine)
	er := mining.NewErCache(g, cfg.R)
	run.register(er)
	cands := mining.SumGen(g, vp, vp, cfg.Mining, er)
	sp.SetArg("candidates", int64(len(cands)))
	sp.End()

	sp = run.phase(PhaseSummarize)
	chosen, uncovered := greedyCover(g, cands, vp, cfg.N, 0, run.reg)
	sp.SetArg("patterns", int64(len(chosen)))
	sp.End()

	return buildSummary(cfg, chosen, er, util, uncovered, run.finish(len(cands), 0)), nil
}

// coverState tracks the partial summary during the greedy loops. Candidate
// coverage is anchored to the fixed selection V_p (which FairSelect already
// validated against the group bounds), so procedure Extendable of Fig. 4
// reduces to its remaining conditions: the pattern must cover at least one
// new node and the total cover must stay within n.
type coverState struct {
	n       int
	covered graph.NodeSet // selected nodes covered so far
}

func newCoverState(n int) *coverState {
	return &coverState{n: n, covered: graph.NewNodeSet(0)}
}

// extendable reports whether adding cand keeps the partial summary feasible.
func (cs *coverState) extendable(cand *mining.Candidate) bool {
	newNodes := 0
	for _, v := range cand.Covered {
		if !cs.covered.Has(v) {
			newNodes++
		}
	}
	return newNodes > 0 && cs.covered.Len()+newNodes <= cs.n
}

// add commits a candidate's coverage.
func (cs *coverState) add(cand *mining.Candidate) {
	for _, v := range cand.Covered {
		cs.covered.Add(v)
	}
}

// betterGain compares two candidates by the Fig. 3 line 11 ratio
// |P ∩ V_p| / C_P, with C_P = 0 treated as infinite gain.
func betterGain(newA, cpA, newB, cpB int) bool {
	if cpA == 0 && cpB == 0 {
		return newA > newB
	}
	if cpA == 0 {
		return true
	}
	if cpB == 0 {
		return false
	}
	// Cross-multiplied ratio comparison avoids float drift.
	lhs := newA * cpB
	rhs := newB * cpA
	if lhs != rhs {
		return lhs > rhs
	}
	return newA > newB
}
