package core

import (
	"math/rand"
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/mining"
	"github.com/cwru-db/fgs/internal/obs"
	"github.com/cwru-db/fgs/internal/pattern"
)

// randCoverInstance builds a random greedy-cover input: candidate sets with
// overlapping coverage, varied C_P (including zero-loss patterns, whose gain
// is infinite), and a vp drawn from the same universe so some nodes may be
// uncoverable.
func randCoverInstance(rng *rand.Rand) (cands []*mining.Candidate, vp []graph.NodeID) {
	universe := 10 + rng.Intn(40)
	nCands := rng.Intn(30)
	cands = make([]*mining.Candidate, 0, nCands)
	for i := 0; i < nCands; i++ {
		size := 1 + rng.Intn(7)
		set := graph.NewNodeSet(size)
		for len(set) < size {
			set.Add(graph.NodeID(rng.Intn(universe)))
		}
		covered := make([]graph.NodeID, 0, size)
		for v := range set {
			covered = append(covered, v)
		}
		sortNodes(covered)
		// Small CP range on purpose: collisions force the ratio and
		// newAnchors tie-breaks, and CP=0 exercises the infinite-gain rule.
		// The distinct P pointer is an identity marker: it lets the test
		// distinguish candidates with identical coverage, so the
		// earliest-index tie-break is verified exactly.
		cands = append(cands, &mining.Candidate{
			P:       new(pattern.Pattern),
			Covered: covered,
			CP:      rng.Intn(4),
		})
	}
	nVP := 1 + rng.Intn(universe)
	vpSet := graph.NewNodeSet(nVP)
	for len(vpSet) < nVP {
		vpSet.Add(graph.NodeID(rng.Intn(universe)))
	}
	for v := range vpSet {
		vp = append(vp, v)
	}
	sortNodes(vp)
	return cands, vp
}

// TestGreedyCoverMatchesScan is the equivalence property test: on random
// instances the incremental lazy-heap implementation must choose the same
// patterns in the same order and leave the same uncovered set as the
// reference rescan implementation, across n caps and pattern budgets.
func TestGreedyCoverMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		cands, vp := randCoverInstance(rng)
		// n tight enough to trigger infeasibility drops about half the time;
		// maxPatterns 0 (unbounded) or small.
		n := 1 + rng.Intn(2*len(vp))
		maxPatterns := 0
		if rng.Intn(2) == 0 {
			maxPatterns = 1 + rng.Intn(5)
		}
		// A live registry here doubles as a check that counter reporting
		// cannot perturb the algorithm's output.
		gotChosen, gotUnc := greedyCover(nil, cands, vp, n, maxPatterns, obs.NewRegistry())
		wantChosen, wantUnc := greedyCoverScan(nil, cands, vp, n, maxPatterns)
		if len(gotChosen) != len(wantChosen) {
			t.Fatalf("trial %d (n=%d, max=%d): chose %d patterns, scan chose %d",
				trial, n, maxPatterns, len(gotChosen), len(wantChosen))
		}
		for i := range wantChosen {
			if gotChosen[i].P != wantChosen[i].P {
				t.Fatalf("trial %d (n=%d, max=%d): choice %d is a different candidate",
					trial, n, maxPatterns, i)
			}
		}
		sortNodes(gotUnc)
		sortNodes(wantUnc)
		if len(gotUnc) != len(wantUnc) {
			t.Fatalf("trial %d: uncovered %d vs scan %d", trial, len(gotUnc), len(wantUnc))
		}
		for i := range wantUnc {
			if gotUnc[i] != wantUnc[i] {
				t.Fatalf("trial %d: uncovered sets differ at %d: %d vs %d",
					trial, i, gotUnc[i], wantUnc[i])
			}
		}
	}
}

// TestGreedyCoverEdgeCases pins the degenerate inputs the property test can
// miss by chance.
func TestGreedyCoverEdgeCases(t *testing.T) {
	mk := func(cp int, nodes ...graph.NodeID) *mining.Candidate {
		// Distinct P pointers distinguish otherwise-identical candidates.
		return &mining.Candidate{P: new(pattern.Pattern), Covered: nodes, CP: cp}
	}
	cases := []struct {
		name        string
		cands       []*mining.Candidate
		vp          []graph.NodeID
		n           int
		maxPatterns int
	}{
		{name: "no-candidates", vp: []graph.NodeID{1, 2}, n: 5},
		{name: "empty-vp", cands: []*mining.Candidate{mk(1, 3, 4)}, n: 5},
		{name: "n-too-small", cands: []*mining.Candidate{mk(0, 1, 2, 3)}, vp: []graph.NodeID{1}, n: 2},
		{name: "budget-one", cands: []*mining.Candidate{mk(1, 1), mk(1, 2)}, vp: []graph.NodeID{1, 2}, n: 5, maxPatterns: 1},
		{
			name:  "exact-ties",
			cands: []*mining.Candidate{mk(2, 1, 2), mk(2, 1, 2), mk(2, 3, 4)},
			vp:    []graph.NodeID{1, 2, 3, 4}, n: 10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gotC, gotU := greedyCover(nil, tc.cands, tc.vp, tc.n, tc.maxPatterns, nil)
			wantC, wantU := greedyCoverScan(nil, tc.cands, tc.vp, tc.n, tc.maxPatterns)
			if len(gotC) != len(wantC) || len(sortNodes(gotU)) != len(sortNodes(wantU)) {
				t.Fatalf("chose %d/%d patterns, uncovered %d/%d", len(gotC), len(wantC), len(gotU), len(wantU))
			}
			for i := range wantC {
				if gotC[i].P != wantC[i].P || gotC[i].CP != wantC[i].CP {
					t.Fatalf("choice %d differs", i)
				}
			}
			for i := range wantU {
				if gotU[i] != wantU[i] {
					t.Fatalf("uncovered differs at %d", i)
				}
			}
		})
	}
}
