package core

import (
	"slices"
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/mining"
	"github.com/cwru-db/fgs/internal/pattern"
	"github.com/cwru-db/fgs/internal/submod"
)

func TestKAPXFGSRequiresK(t *testing.T) {
	g, groups, util := talentFixture(t)
	cfg := defaultCfg() // K = 0
	if _, err := KAPXFGS(g, groups, util, cfg); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestKAPXFGSFeasibleAndBudgeted(t *testing.T) {
	g, groups, util := talentFixture(t)
	cfg := defaultCfg()
	cfg.K = 3
	s, err := KAPXFGS(g, groups, util, cfg)
	if err != nil {
		t.Fatalf("KAPXFGS: %v", err)
	}
	if len(s.Patterns) > cfg.K {
		t.Fatalf("|P| = %d > k = %d", len(s.Patterns), cfg.K)
	}
	assertFeasibleLossless(t, g, groups, util, cfg, s)
}

func TestKAPXFGSCoversSelection(t *testing.T) {
	g, groups, util := talentFixture(t)
	cfg := defaultCfg()
	cfg.K = 4
	s, err := KAPXFGS(g, groups, util, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Uncovered) != 0 {
		t.Fatalf("uncovered: %v", s.Uncovered)
	}
	counts := groups.Counts(s.Covered)
	if !groups.SatisfiesBounds(counts) {
		t.Fatalf("bounds violated: %v", counts)
	}
}

// With a larger pattern budget the correction size must not grow: more
// patterns can only cover more edges of E^r_{V_p}.
func TestKAPXFGSCorrectionShrinksWithK(t *testing.T) {
	g, groups, _ := talentFixture(t)
	prev := -1
	for _, k := range []int{2, 4, 8} {
		cfg := defaultCfg()
		cfg.K = k
		util := submod.NewNeighborCoverage(g, submod.NeighborsIn, "recommend")
		s, err := KAPXFGS(g, groups, util, cfg)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if prev >= 0 && s.Corrections.Len() > prev {
			t.Fatalf("|C| grew from %d to %d as k rose to %d", prev, s.Corrections.Len(), k)
		}
		prev = s.Corrections.Len()
	}
}

func TestKAPXFGSRandomGraphs(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		g, groups, util := randomFixture(t, seed, 50, 120, 6)
		cfg := defaultCfg()
		cfg.N = 6
		cfg.K = 6
		s, err := KAPXFGS(g, groups, util, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(s.Patterns) > cfg.K {
			t.Fatalf("seed %d: budget violated", seed)
		}
		// Lossless reconstruction must hold regardless of repair outcomes.
		missing, spurious := s.Reconstruct(g)
		if missing.Len() != 0 || spurious.Len() != 0 {
			t.Fatalf("seed %d: not lossless (missing %d, spurious %d)", seed, missing.Len(), spurious.Len())
		}
		counts := groups.Counts(s.Covered)
		for gi := 0; gi < groups.Len(); gi++ {
			if counts[gi] > groups.At(gi).Upper {
				t.Fatalf("seed %d: upper bound violated: %v", seed, counts)
			}
		}
	}
}

// TestKAPXFGSSwapRepair forces the k=1 swap path: the edge-coverage greedy
// first picks the pattern describing the structure-rich candidate, and the
// repair must then swap in a pattern that covers both selected nodes.
func TestKAPXFGSSwapRepair(t *testing.T) {
	g, groups, util := talentFixture(t)
	cfg := defaultCfg()
	cfg.K = 1
	cfg.N = 4
	s, err := KAPXFGS(g, groups, util, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Patterns) > 1 {
		t.Fatalf("|P| = %d > k = 1", len(s.Patterns))
	}
	// With a single pattern the whole selection must still be covered (the
	// label-only seed covers every user), or explicitly reported.
	if len(s.Uncovered) != 0 {
		t.Fatalf("k=1 left %v uncovered despite a universal seed pattern", s.Uncovered)
	}
	missing, spurious := s.Reconstruct(g)
	if missing.Len() != 0 || spurious.Len() != 0 {
		t.Fatal("not lossless")
	}
}

// TestMaxCoverSelectSwapPath drives maxCoverSelect directly with a crafted
// candidate pool: the edge greedy's best pick misses one selected node, the
// budget is full (k=1), and the repair must swap in the candidate that
// covers both.
func TestMaxCoverSelectSwapPath(t *testing.T) {
	g := graph.New()
	a := g.AddNode("user", nil)
	b := g.AddNode("user", nil)
	var aEdges []graph.EdgeRef
	for i := 0; i < 3; i++ {
		r := g.AddNode("user", nil)
		if err := g.AddEdge(r, a, "rec"); err != nil {
			t.Fatal(err)
		}
		lid, _ := g.EdgeLabelID("rec")
		aEdges = append(aEdges, graph.EdgeRef{From: r, To: a, Label: lid})
	}
	rb := g.AddNode("user", nil)
	if err := g.AddEdge(rb, b, "rec"); err != nil {
		t.Fatal(err)
	}
	lid, _ := g.EdgeLabelID("rec")
	bEdge := graph.EdgeRef{From: rb, To: b, Label: lid}

	rich := &mining.Candidate{
		P:            pattern.NewNodePattern("user"),
		Covered:      []graph.NodeID{a},
		CoveredEdges: edgeIDsOf(g, aEdges...),
		CP:           0,
	}
	broad := &mining.Candidate{
		P:            pattern.NewNodePattern("user"),
		Covered:      []graph.NodeID{a, b},
		CoveredEdges: edgeIDsOf(g, bEdge),
		CP:           3,
	}
	vp := []graph.NodeID{a, b}
	cfg := Config{R: 1, K: 1, N: 2}.withDefaults()
	er := mining.NewErCache(g, 1)
	chosen, uncovered := maxCoverSelect([]*mining.Candidate{rich, broad}, vp, cfg, er, nil)
	if len(uncovered) != 0 {
		t.Fatalf("swap repair failed: uncovered %v", uncovered)
	}
	if len(chosen) != 1 || len(chosen[0].Covered) != 2 {
		t.Fatalf("expected the broad candidate after the swap, got %+v", chosen)
	}
}

// edgeIDsOf returns the IDs of refs in g as a sorted P_E list.
func edgeIDsOf(g *graph.Graph, refs ...graph.EdgeRef) []graph.EdgeID {
	var ids []graph.EdgeID
	for _, ref := range refs {
		if id, ok := g.EdgeIDOf(ref); ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}
