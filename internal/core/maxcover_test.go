package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/mining"
	"github.com/cwru-db/fgs/internal/pattern"
)

// scanMaxCover is the max-coverage greedy lazyMaxCover replaced: every
// round it checks every unused candidate against the n cap and counts its
// marginal edge gain, keeps the first strictly best, and stops when the
// best gain is not positive. It is the behavioural reference for
// lazyMaxCover.
func scanMaxCover(cands []*mining.Candidate, universe *graph.EdgeBits, n, k int) []int {
	chosenIdx := make([]int, 0, k)
	used := make([]bool, len(cands))
	covered := graph.NewEdgeBits(0)
	for len(chosenIdx) < k {
		best, bestGain := -1, -1
		for i, cand := range cands {
			if used[i] || !feasibleTogether(cands, append(slices.Clone(chosenIdx), i), n) {
				continue
			}
			gain := 0
			for _, e := range cand.CoveredEdges {
				if universe.Has(e) && !covered.Has(e) {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 || bestGain <= 0 {
			break
		}
		used[best] = true
		chosenIdx = append(chosenIdx, best)
		for _, e := range cands[best].CoveredEdges {
			if universe.Has(e) {
				covered.Add(e)
			}
		}
	}
	return chosenIdx
}

// maxCoverInstance is one synthetic k-APXFGS summarization input.
type maxCoverInstance struct {
	cands    []*mining.Candidate
	vp       []graph.NodeID
	universe *graph.EdgeBits
	n, k     int
}

// randMaxCoverInstance draws candidates over small node and edge-ID spaces,
// so gains tie often. Some P_E lists are empty or lie outside the universe
// (zero gain from the start), some covered sets are wider than n (they
// break the cap), and k ranges past the candidate count.
func randMaxCoverInstance(rng *rand.Rand) maxCoverInstance {
	nodes, edges := 2+rng.Intn(12), 1+rng.Intn(40)
	universe := graph.NewEdgeBits(0)
	for e := 0; e < edges; e++ {
		if rng.Intn(4) > 0 {
			universe.Add(graph.EdgeID(e))
		}
	}
	subset := func(space, max int) []int {
		set := map[int]bool{}
		for i := rng.Intn(max + 1); i > 0; i-- {
			set[rng.Intn(space)] = true
		}
		var out []int
		for v := range set {
			out = append(out, v)
		}
		slices.Sort(out)
		return out
	}
	inst := maxCoverInstance{universe: universe, n: 1 + rng.Intn(nodes)}
	nCands := rng.Intn(30)
	inst.k = 1 + rng.Intn(nCands+5)
	for i := 0; i < nCands; i++ {
		c := &mining.Candidate{P: new(pattern.Pattern), CP: rng.Intn(5)}
		for _, v := range subset(nodes, 1+nodes/2) {
			c.Covered = append(c.Covered, graph.NodeID(v))
		}
		if len(c.Covered) == 0 {
			c.Covered = []graph.NodeID{graph.NodeID(rng.Intn(nodes))}
		}
		for _, e := range subset(edges+8, 12) { // IDs past the universe too
			c.CoveredEdges = append(c.CoveredEdges, graph.EdgeID(e))
		}
		inst.cands = append(inst.cands, c)
	}
	for _, v := range subset(nodes, nodes) {
		inst.vp = append(inst.vp, graph.NodeID(v))
	}
	return inst
}

// checkMaxCoverAgainstScan asserts lazyMaxCover picks what the scan picks,
// and that the repair phase then leaves the same nodes uncovered.
func checkMaxCoverAgainstScan(t *testing.T, name string, inst maxCoverInstance) {
	t.Helper()
	want := scanMaxCover(inst.cands, inst.universe, inst.n, inst.k)
	got, _ := lazyMaxCover(inst.cands, inst.universe, inst.n, inst.k)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: lazy greedy chose %v, scan chose %v", name, got, want)
	}
	wantIdx, wantUnc, _ := repairCover(inst.cands, inst.vp, inst.universe, want, inst.n, inst.k)
	gotIdx, gotUnc, _ := repairCover(inst.cands, inst.vp, inst.universe, got, inst.n, inst.k)
	if !slices.Equal(gotIdx, wantIdx) || !slices.Equal(gotUnc, wantUnc) {
		t.Fatalf("%s: after repair chose %v uncovered %v, scan path %v uncovered %v", name, gotIdx, gotUnc, wantIdx, wantUnc)
	}
}

func TestLazyMaxCoverMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 3000; trial++ {
		checkMaxCoverAgainstScan(t, fmt.Sprintf("trial %d", trial), randMaxCoverInstance(rng))
	}
}

// TestLazyMaxCoverEdgeCases pins the inputs the property test reaches only
// by chance.
func TestLazyMaxCoverEdgeCases(t *testing.T) {
	mk := func(nodes []graph.NodeID, edges ...graph.EdgeID) *mining.Candidate {
		return &mining.Candidate{P: new(pattern.Pattern), Covered: nodes, CoveredEdges: edges}
	}
	universe := graph.NewEdgeBits(0)
	for e := graph.EdgeID(0); e < 10; e++ {
		universe.Add(e)
	}
	cases := []struct {
		name  string
		cands []*mining.Candidate
		n, k  int
		want  []int
	}{
		{name: "no-candidates", n: 3, k: 2},
		{name: "zero-gain", cands: []*mining.Candidate{mk([]graph.NodeID{0}), mk([]graph.NodeID{1}, 11, 12)}, n: 3, k: 2},
		{
			// Equal gains go to the lower index, in every round.
			name:  "ties",
			cands: []*mining.Candidate{mk([]graph.NodeID{0}, 1, 2), mk([]graph.NodeID{1}, 3, 4), mk([]graph.NodeID{2}, 1, 2)},
			n:     3, k: 3, want: []int{0, 1},
		},
		{
			// The best candidate covers more nodes than n allows.
			name:  "breaks-cap",
			cands: []*mining.Candidate{mk([]graph.NodeID{0, 1, 2}, 0, 1, 2, 3), mk([]graph.NodeID{0}, 4)},
			n:     2, k: 2, want: []int{1},
		},
		{
			// Fits alone, breaks the cap once the first pick is in.
			name:  "breaks-cap-later",
			cands: []*mining.Candidate{mk([]graph.NodeID{0, 1}, 0, 1, 2), mk([]graph.NodeID{2}, 3, 4), mk([]graph.NodeID{0}, 5)},
			n:     2, k: 3, want: []int{0, 2},
		},
		{
			// A stale key: candidate 1's gain falls from 3 to 1 once 0 is
			// chosen, below candidate 2's 2.
			name:  "stale-gain",
			cands: []*mining.Candidate{mk([]graph.NodeID{0}, 0, 1, 2, 3), mk([]graph.NodeID{1}, 1, 2, 9), mk([]graph.NodeID{2}, 5, 6)},
			n:     3, k: 3, want: []int{0, 2, 1},
		},
		{name: "k-above-count", cands: []*mining.Candidate{mk([]graph.NodeID{0}, 0), mk([]graph.NodeID{1}, 1)}, n: 5, k: 9, want: []int{0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _ := lazyMaxCover(tc.cands, universe, tc.n, tc.k)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("lazy greedy chose %v, want %v", got, tc.want)
			}
			checkMaxCoverAgainstScan(t, tc.name, maxCoverInstance{cands: tc.cands, vp: []graph.NodeID{0, 1, 2}, universe: universe, n: tc.n, k: tc.k})
		})
	}
}
