package core

import (
	"fmt"
	"sort"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/mining"
	"github.com/cwru-db/fgs/internal/obs"
	"github.com/cwru-db/fgs/internal/submod"
)

// KAPXFGS computes an r-summary with at most k patterns, minimizing the
// correction size |C| rather than the accumulated loss C_l — the Section V
// variant with the (½, 1+1/(e·γ)) guarantee of Theorem 5.
//
// After the usual selection phase, the summarization phase solves a maximum
// coverage instance over the edge universe E^r_{V_p}: it greedily picks the
// pattern with the largest marginal covered-edge gain, k times, then repairs
// node coverage of V_p (if needed) with the greedy swapping strategy the
// paper outlines: trade the chosen pattern with the smallest marginal edge
// contribution for a candidate that covers missing nodes, while all
// previously covered selected nodes stay covered.
func KAPXFGS(g *graph.Graph, groups *submod.Groups, util submod.Utility, cfg Config) (*Summary, error) {
	cfg = cfg.withDefaults()
	if cfg.K <= 0 {
		return nil, fmt.Errorf("core: KAPXFGS requires K > 0 (got %d); use APXFGS for unbounded patterns", cfg.K)
	}
	run := startRun(cfg.Obs, "kapxfgs")

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
	chosen, uncovered := maxCoverSelect(cands, vp, cfg, er, run.reg)
	sp.SetArg("patterns", int64(len(chosen)))
	sp.End()

	return buildSummary(cfg, chosen, er, util, uncovered, run.finish(len(cands), 0)), nil
}

// maxCoverSelect picks up to k candidates maximizing edge coverage of
// E^r_{V_p}, then repairs V_p node coverage by swapping. Iteration counters
// (rounds, candidate scans, repair swaps) are reported to reg at the end —
// zero overhead inside the loops, nothing when reg is nil.
func maxCoverSelect(cands []*mining.Candidate, vp []graph.NodeID, cfg Config, er *mining.ErCache, reg *obs.Registry) ([]PatternInfo, []graph.NodeID) {
	var rounds, scans, swaps int64
	defer func() {
		reg.Add("fgs_cover_rounds_total", "Greedy cover rounds (patterns chosen).", nil, rounds)
		reg.Add("fgs_cover_candidate_scans_total", "Candidate evaluations across greedy cover rounds.", nil, scans)
		reg.Add("fgs_cover_swaps_total", "Repair-phase pattern swaps in KAPXFGS.", nil, swaps)
	}()

	universe := er.UnionOf(vp)
	chosenIdx := make([]int, 0, cfg.K)
	used := make([]bool, len(cands))

	// Greedy max coverage over edges; all three operand sets are dense
	// bitsets, so each marginal gain is one word sweep.
	coveredEdges := graph.NewEdgeBits(er.Graph().EdgeIDBound())
	for len(chosenIdx) < cfg.K {
		best := -1
		bestGain := -1
		for i, cand := range cands {
			if used[i] {
				continue
			}
			scans++
			if !feasibleTogether(cands, append(chosenIdx, i), cfg.N) {
				continue
			}
			gain := edgeMarginal(cand, universe, coveredEdges)
			if gain > bestGain {
				bestGain = gain
				best = i
			}
		}
		if best < 0 || bestGain <= 0 {
			// No candidate improves edge coverage; stop early (remaining
			// budget is better spent by the repair phase below).
			break
		}
		used[best] = true
		chosenIdx = append(chosenIdx, best)
		rounds++
		cands[best].CoveredEdges.Iterate(func(e graph.EdgeID) {
			if universe.Has(e) {
				coveredEdges.Add(e)
			}
		})
	}

	// Repair node coverage of V_p: first fill any spare budget, then swap.
	uncoveredOf := func(idx []int) []graph.NodeID {
		cov := graph.NewNodeSet(0)
		for _, i := range idx {
			for _, v := range cands[i].Covered {
				cov.Add(v)
			}
		}
		var out []graph.NodeID
		for _, v := range vp {
			if !cov.Has(v) {
				out = append(out, v)
			}
		}
		return out
	}

	for rounds := 0; rounds < cfg.K+len(vp); rounds++ {
		missing := uncoveredOf(chosenIdx)
		if len(missing) == 0 {
			break
		}
		missingSet := graph.NodeSetOf(missing)
		// Incoming candidates ranked by missing-node coverage (ties toward
		// smaller C_P), tried in order until one admits a feasible swap.
		type inCand struct {
			idx  int
			gain int
		}
		var ins []inCand
		for i, cand := range cands {
			if used[i] {
				continue
			}
			gain := 0
			for _, v := range cand.Covered {
				if missingSet.Has(v) {
					gain++
				}
			}
			if gain > 0 {
				ins = append(ins, inCand{idx: i, gain: gain})
			}
		}
		sort.SliceStable(ins, func(a, b int) bool {
			if ins[a].gain != ins[b].gain {
				return ins[a].gain > ins[b].gain
			}
			return cands[ins[a].idx].CP < cands[ins[b].idx].CP
		})
		progressed := false
		for _, ic := range ins {
			in := ic.idx
			if len(chosenIdx) < cfg.K {
				if feasibleTogether(cands, append(chosenIdx, in), cfg.N) {
					used[in] = true
					chosenIdx = append(chosenIdx, in)
					progressed = true
					break
				}
				continue
			}
			// Swap: evict the chosen pattern whose removal loses the fewest
			// unique edges while keeping progress on the missing nodes.
			out := -1
			outLoss := 0
			for pos := range chosenIdx {
				trial := make([]int, 0, len(chosenIdx))
				trial = append(trial, chosenIdx[:pos]...)
				trial = append(trial, chosenIdx[pos+1:]...)
				trial = append(trial, in)
				if !feasibleTogether(cands, trial, cfg.N) {
					continue
				}
				if len(uncoveredOf(trial)) >= len(missing) {
					continue // the swap does not make progress
				}
				loss := uniqueEdgeContribution(cands, chosenIdx, pos, universe)
				if out < 0 || loss < outLoss {
					out = pos
					outLoss = loss
				}
			}
			if out < 0 {
				continue
			}
			used[in] = true
			chosenIdx = append(chosenIdx[:out], chosenIdx[out+1:]...)
			chosenIdx = append(chosenIdx, in)
			swaps++
			progressed = true
			break
		}
		if !progressed {
			break
		}
	}

	chosen := make([]PatternInfo, 0, len(chosenIdx))
	for _, i := range chosenIdx {
		chosen = append(chosen, infoOf(er.Graph(), cands[i]))
	}
	return chosen, uncoveredOf(chosenIdx)
}

// edgeMarginal counts cand's covered edges inside the universe not yet
// covered.
func edgeMarginal(cand *mining.Candidate, universe, covered *graph.EdgeBits) int {
	return cand.CoveredEdges.IntersectAndNotCount(universe, covered)
}

// uniqueEdgeContribution counts universe edges only the pattern at position
// pos covers among the chosen set.
func uniqueEdgeContribution(cands []*mining.Candidate, chosenIdx []int, pos int, universe *graph.EdgeBits) int {
	others := graph.NewEdgeBits(0)
	for p, i := range chosenIdx {
		if p == pos {
			continue
		}
		others.Union(cands[i].CoveredEdges)
	}
	return cands[chosenIdx[pos]].CoveredEdges.IntersectAndNotCount(universe, others)
}

// feasibleTogether checks the n cap for the union coverage of a candidate
// index set. Coverage is anchored to V_p (which already satisfies the group
// bounds), so the cap is the only remaining structural constraint.
func feasibleTogether(cands []*mining.Candidate, idx []int, n int) bool {
	cov := graph.NewNodeSet(0)
	for _, i := range idx {
		for _, v := range cands[i].Covered {
			cov.Add(v)
		}
	}
	return cov.Len() <= n
}
