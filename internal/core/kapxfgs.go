package core

import (
	"container/heap"
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
// (rounds, gain evaluations, repair swaps) are reported to reg at the end —
// zero overhead inside the loops, nothing when reg is nil.
func maxCoverSelect(cands []*mining.Candidate, vp []graph.NodeID, cfg Config, er *mining.ErCache, reg *obs.Registry) ([]PatternInfo, []graph.NodeID) {
	universe := er.UnionOf(vp)
	chosenIdx, evals := lazyMaxCover(cands, universe, cfg.N, cfg.K)
	rounds := int64(len(chosenIdx))
	chosenIdx, uncovered, swaps := repairCover(cands, vp, universe, chosenIdx, cfg.N, cfg.K)
	reg.Add("fgs_cover_rounds_total", "Greedy cover rounds (patterns chosen).", nil, rounds)
	reg.Add("fgs_cover_candidate_scans_total", "Marginal edge-gain evaluations in KAPXFGS's lazy max-coverage greedy.", nil, evals)
	reg.Add("fgs_cover_swaps_total", "Repair-phase pattern swaps in KAPXFGS.", nil, swaps)

	chosen := make([]PatternInfo, 0, len(chosenIdx))
	for _, i := range chosenIdx {
		chosen = append(chosen, infoOf(er.Graph(), cands[i]))
	}
	return chosen, uncovered
}

// lazyMaxCover is the greedy max coverage of k-APXFGS: up to k times, it
// picks the candidate with the largest marginal gain |P_E ∩ universe \
// covered| among those whose covered nodes, joined with the chosen ones',
// stay within n, ties to the lower index. It stops when no such candidate
// has a positive gain, leaving the rest of the budget to the repair phase.
// It returns the chosen indices in order and how many gains it evaluated.
//
// A gain is counted over the candidate's P_E list, and gains only fall as
// the covered edges grow. So a max-heap keyed on (gain, lower index first),
// with keys from earlier rounds, overestimates every entry: an entry whose
// gain has been recounted this round and that still tops the heap is the
// round's argmax, exactly what a scan of every candidate picks. Two of the
// scan's per-round skips become permanent drops: a gain of 0 never rises,
// and the union of covered nodes only grows, so a candidate that breaks
// the n cap once always will. greedyCover rests on the same argument.
func lazyMaxCover(cands []*mining.Candidate, universe *graph.EdgeBits, n, k int) (chosenIdx []int, evals int64) {
	covered := graph.NewEdgeBits(0)
	gain := func(i int) int {
		evals++
		g := 0
		for _, e := range cands[i].CoveredEdges {
			if universe.Has(e) && !covered.Has(e) {
				g++
			}
		}
		return g
	}
	// The covered nodes of the chosen candidates, for the n cap.
	nodes := graph.NewNodeBits(0)
	fits := func(i int) bool {
		grown := nodes.Count()
		for _, v := range cands[i].Covered {
			if !nodes.Has(v) {
				grown++
			}
		}
		return grown <= n
	}

	// counted[i] is the round in which entry i's key was last counted; every
	// key starts counted against round 1's empty cover.
	h := &edgeGainHeap{}
	counted := make([]int, len(cands))
	for i := range cands {
		counted[i] = 1
		if g := gain(i); g > 0 {
			h.entries = append(h.entries, coverEntry{idx: int32(i), gain: int32(g)})
		}
	}
	heap.Init(h)

	for round := 1; len(chosenIdx) < k && h.Len() > 0; {
		top := &h.entries[0]
		i := int(top.idx)
		if !fits(i) {
			heap.Pop(h)
			continue
		}
		if counted[i] != round {
			counted[i] = round
			g := gain(i)
			if g == 0 {
				heap.Pop(h)
				continue
			}
			if g != int(top.gain) {
				top.gain = int32(g)
				heap.Fix(h, 0)
				continue
			}
		}
		heap.Pop(h)
		chosenIdx = append(chosenIdx, i)
		round++
		for _, e := range cands[i].CoveredEdges {
			if universe.Has(e) {
				covered.Add(e)
			}
		}
		for _, v := range cands[i].Covered {
			nodes.Add(v)
		}
	}
	return chosenIdx, evals
}

// edgeGainHeap is lazyMaxCover's max-heap: larger gain first, ties toward
// the lower candidate index.
type edgeGainHeap struct{ entries []coverEntry }

func (h *edgeGainHeap) Len() int { return len(h.entries) }

func (h *edgeGainHeap) Less(a, b int) bool {
	ea, eb := h.entries[a], h.entries[b]
	if ea.gain != eb.gain {
		return ea.gain > eb.gain
	}
	return ea.idx < eb.idx
}

func (h *edgeGainHeap) Swap(a, b int) { h.entries[a], h.entries[b] = h.entries[b], h.entries[a] }

func (h *edgeGainHeap) Push(x any) { h.entries = append(h.entries, x.(coverEntry)) }

func (h *edgeGainHeap) Pop() any {
	old := h.entries
	x := old[len(old)-1]
	h.entries = old[:len(old)-1]
	return x
}

// repairCover repairs node coverage of vp after the greedy chose chosenIdx:
// it first fills any spare budget of k, then swaps. It returns the final
// choice, the selected nodes it leaves uncovered, and the swap count.
func repairCover(cands []*mining.Candidate, vp []graph.NodeID, universe *graph.EdgeBits, chosenIdx []int, n, k int) ([]int, []graph.NodeID, int64) {
	var swaps int64
	used := make([]bool, len(cands))
	for _, i := range chosenIdx {
		used[i] = true
	}
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

	for rounds := 0; rounds < k+len(vp); rounds++ {
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
			if len(chosenIdx) < k {
				if feasibleTogether(cands, append(chosenIdx, in), n) {
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
				if !feasibleTogether(cands, trial, n) {
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

	return chosenIdx, uncoveredOf(chosenIdx), swaps
}

// uniqueEdgeContribution counts universe edges only the pattern at position
// pos covers among the chosen set.
func uniqueEdgeContribution(cands []*mining.Candidate, chosenIdx []int, pos int, universe *graph.EdgeBits) int {
	others := graph.AcquireEdgeAcc(0)
	defer others.Release()
	for p, i := range chosenIdx {
		if p == pos {
			continue
		}
		for _, e := range cands[i].CoveredEdges {
			others.Add(e)
		}
	}
	n := 0
	for _, e := range cands[chosenIdx[pos]].CoveredEdges {
		if universe.Has(e) && !others.Bits().Has(e) {
			n++
		}
	}
	return n
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
