package mining

import (
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/pattern"
	"github.com/cwru-db/fgs/internal/submod"
)

// talentFixture mirrors the paper's Fig. 2 flavor: candidates recommended by
// other users, with exp/industry attributes and a gender split.
//
//	males:   v0 (exp=5, Internet), v5 (exp=4, Internet)
//	females: v8 (exp=4, Internet), v10 (exp=4, Internet)
//	each candidate is recommended by two users; v0's recommenders are each
//	recommended by one more user (depth 2).
func talentFixture(t *testing.T) (*graph.Graph, *submod.Groups, []graph.NodeID) {
	t.Helper()
	g := graph.New()
	v0 := g.AddNode("user", map[string]string{"exp": "5", "industry": "Internet", "gender": "m"})
	v1 := g.AddNode("user", nil)
	v2 := g.AddNode("user", nil)
	v3 := g.AddNode("user", nil)
	v4 := g.AddNode("user", nil)
	v5 := g.AddNode("user", map[string]string{"exp": "4", "industry": "Internet", "gender": "m"})
	v6 := g.AddNode("user", nil)
	v7 := g.AddNode("user", nil)
	v8 := g.AddNode("user", map[string]string{"exp": "4", "industry": "Internet", "gender": "f"})
	v9 := g.AddNode("user", nil)
	v10 := g.AddNode("user", map[string]string{"exp": "4", "industry": "Internet", "gender": "f"})
	v11 := g.AddNode("user", nil)
	v12 := g.AddNode("user", nil)
	edges := [][2]graph.NodeID{
		{v1, v0}, {v2, v0}, {v3, v1}, {v4, v2},
		{v6, v5}, {v7, v5},
		{v9, v8}, {v7, v8},
		{v11, v10}, {v12, v10},
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1], "recommend"); err != nil {
			t.Fatal(err)
		}
	}
	groups, err := submod.NewGroups(
		submod.Group{Name: "male", Members: []graph.NodeID{v0, v5}, Lower: 1, Upper: 2},
		submod.Group{Name: "female", Members: []graph.NodeID{v8, v10}, Lower: 1, Upper: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	anchors := []graph.NodeID{v0, v5, v8, v10}
	return g, groups, anchors
}

func defaultCfg() Config {
	return Config{Radius: 2, MaxNodes: 4, MaxLiterals: 2, MaxPatterns: 150, MinCover: 1}
}

func TestSumGenEmitsFallbacksCoveringEveryAnchor(t *testing.T) {
	g, _, anchors := talentFixture(t)
	cands := SumGen(g, anchors, anchors, defaultCfg(), nil)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, a := range anchors {
		covered := false
		for _, c := range cands {
			if c.Fallback {
				for _, v := range c.Covered {
					if v == a {
						covered = true
					}
				}
			}
		}
		if !covered {
			t.Errorf("anchor %d not covered by any fallback", a)
		}
	}
}

func TestSumGenGrowsStarPattern(t *testing.T) {
	g, _, anchors := talentFixture(t)
	cands := SumGen(g, anchors, anchors, defaultCfg(), nil)
	// Some grown candidate must be the "recommended by two users" star
	// covering all four anchors: two pattern edges into the focus.
	found := false
	for _, c := range cands {
		if c.Fallback || len(c.P.Edges) != 2 {
			continue
		}
		into := 0
		for _, e := range c.P.Edges {
			if e.To == c.P.Focus {
				into++
			}
		}
		if into == 2 && len(c.Covered) == 4 {
			found = true
			break
		}
	}
	if !found {
		t.Error("two-recommender star covering all anchors not mined")
	}
}

func TestSumGenRespectsRadiusAndSize(t *testing.T) {
	g, _, anchors := talentFixture(t)
	cfg := defaultCfg()
	cands := SumGen(g, anchors, anchors, cfg, nil)
	for _, c := range cands {
		if r := c.P.Radius(); r > cfg.Radius {
			t.Errorf("pattern %s radius %d exceeds %d", c.P, r, cfg.Radius)
		}
		if len(c.P.Nodes) > cfg.MaxNodes {
			t.Errorf("pattern %s exceeds MaxNodes", c.P)
		}
		if err := c.P.Validate(); err != nil {
			t.Errorf("invalid mined pattern %s: %v", c.P, err)
		}
	}
}

func TestSumGenCPConsistency(t *testing.T) {
	g, _, anchors := talentFixture(t)
	cfg := defaultCfg()
	er := NewErCache(g, cfg.Radius)
	cands := SumGen(g, anchors, anchors, cfg, er)
	for _, c := range cands {
		if !strictlyAscending(c.CoveredEdges) {
			t.Errorf("pattern %s: P_E %v is not sorted and duplicate-free", c.P, c.CoveredEdges)
		}
		union := er.UnionOf(c.Covered)
		want := union.AndNotCount(edgeBitsOf(c.CoveredEdges))
		if c.CP != want {
			t.Errorf("pattern %s: CP=%d, recomputed %d", c.P, c.CP, want)
		}
	}
}

// strictlyAscending reports whether ids is sorted with no repeats.
func strictlyAscending(ids []graph.EdgeID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

// edgeBitsOf returns a P_E list as a bitset.
func edgeBitsOf(ids []graph.EdgeID) *graph.EdgeBits {
	b := graph.NewEdgeBits(0)
	for _, id := range ids {
		b.Add(id)
	}
	return b
}

func TestSumGenCoverageSortedAndWithinGroups(t *testing.T) {
	g, groups, anchors := talentFixture(t)
	cands := SumGen(g, anchors, anchors, defaultCfg(), nil)
	for _, c := range cands {
		for i := 1; i < len(c.Covered); i++ {
			if c.Covered[i-1] >= c.Covered[i] {
				t.Fatalf("Covered not sorted: %v", c.Covered)
			}
		}
		for _, v := range c.Covered {
			if _, ok := groups.IndexOf(v); !ok {
				t.Fatalf("pattern %s covers non-group node %d", c.P, v)
			}
		}
	}
}

func TestSumGenCoverageRestrictedToUniverse(t *testing.T) {
	// Coverage is anchored to the evaluation universe: label-only patterns
	// match every user in the graph, but Covered must only list universe
	// nodes (the fixed selection of the bilevel formulation).
	g := graph.New()
	var members []graph.NodeID
	for i := 0; i < 5; i++ {
		members = append(members, g.AddNode("user", nil))
	}
	if err := g.AddEdge(members[1], members[0], "rec"); err != nil {
		t.Fatal(err)
	}
	universe := members[:2]
	cands := SumGen(g, members[:1], universe, defaultCfg(), nil)
	uset := graph.NodeSetOf(universe)
	for _, c := range cands {
		for _, v := range c.Covered {
			if !uset.Has(v) {
				t.Fatalf("pattern %s covers node %d outside the universe", c.P, v)
			}
		}
	}
}

func TestSumGenMinCoverPrunes(t *testing.T) {
	g, _, anchors := talentFixture(t)
	cfg := defaultCfg()
	cfg.MinCover = 4 // only patterns covering all four anchors survive
	cands := SumGen(g, anchors, anchors, cfg, nil)
	for _, c := range cands {
		if c.Fallback {
			continue
		}
		if len(c.Covered) < 4 {
			t.Errorf("pattern %s covers %d anchors, below MinCover", c.P, len(c.Covered))
		}
	}
}

func TestSumGenDeterministic(t *testing.T) {
	g, _, anchors := talentFixture(t)
	a := SumGen(g, anchors, anchors, defaultCfg(), nil)
	b := SumGen(g, anchors, anchors, defaultCfg(), nil)
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if pattern.CanonicalCode(a[i].P) != pattern.CanonicalCode(b[i].P) {
			t.Fatalf("candidate %d differs between runs: %s vs %s", i, a[i].P, b[i].P)
		}
		if a[i].CP != b[i].CP {
			t.Fatalf("candidate %d CP differs", i)
		}
	}
}

func TestSumGenMaxPatternsBudget(t *testing.T) {
	g, _, anchors := talentFixture(t)
	cfg := defaultCfg()
	cfg.MaxPatterns = 3
	cands := SumGen(g, anchors, anchors, cfg, nil)
	grown := 0
	fallbacks := 0
	for _, c := range cands {
		if c.Fallback {
			fallbacks++
		} else {
			grown++
		}
	}
	if grown > 3 {
		t.Fatalf("grown=%d exceeds MaxPatterns=3", grown)
	}
	if fallbacks == 0 {
		t.Fatal("fallbacks must survive the budget")
	}
}

func TestErCache(t *testing.T) {
	g, _, anchors := talentFixture(t)
	c := NewErCache(g, 2)
	if c.Radius() != 2 {
		t.Fatal("Radius wrong")
	}
	a := c.Get(anchors[0])
	b := c.Get(anchors[0])
	if a.Count() != b.Count() {
		t.Fatal("memoized result differs")
	}
	want := g.RHopEdges(anchors[0], 2)
	if a.Count() != want.Len() {
		t.Fatalf("cache len %d, direct %d", a.Count(), want.Len())
	}
	union := c.UnionOf(anchors)
	direct := g.RHopEdgesOf(anchors, 2)
	if union.Count() != direct.Len() {
		t.Fatalf("UnionOf len %d, direct %d", union.Count(), direct.Len())
	}
	c.Invalidate(anchors[:1])
	if c.Get(anchors[0]).Count() != want.Len() {
		t.Fatal("post-invalidate recompute wrong")
	}
}

func TestCoversAnyOf(t *testing.T) {
	c := &Candidate{Covered: []graph.NodeID{1, 3, 5}}
	if !c.CoversAnyOf(graph.NodeSetOf([]graph.NodeID{5, 9})) {
		t.Fatal("should cover 5")
	}
	if c.CoversAnyOf(graph.NodeSetOf([]graph.NodeID{2, 4})) {
		t.Fatal("should not cover")
	}
}

func TestFrequentRankingAndPruning(t *testing.T) {
	g, _, _ := talentFixture(t)
	universe := g.NodesWithLabel("user")
	cfg := defaultCfg()
	freq := Frequent(g, universe, cfg, 5, 2)
	if len(freq) == 0 {
		t.Fatal("no frequent patterns")
	}
	if len(freq) > 5 {
		t.Fatalf("topK not enforced: %d", len(freq))
	}
	for i, f := range freq {
		if f.Support < 2 {
			t.Errorf("pattern %s support %d below minSup", f.P, f.Support)
		}
		if f.Support != len(f.Covered) {
			t.Errorf("support %d != |covered| %d", f.Support, len(f.Covered))
		}
		if i > 0 && freq[i-1].Support < f.Support {
			t.Error("not sorted by support desc")
		}
	}
	// The label-only singleton covers all 13 users: must be ranked first.
	if freq[0].Support != 13 {
		t.Errorf("top support = %d, want 13", freq[0].Support)
	}
}

func TestFrequentMinSupPrunesSubtrees(t *testing.T) {
	g, _, _ := talentFixture(t)
	universe := g.NodesWithLabel("user")
	all := Frequent(g, universe, defaultCfg(), 1000, 1)
	strict := Frequent(g, universe, defaultCfg(), 1000, 5)
	if len(strict) >= len(all) {
		t.Fatalf("minSup=5 should prune: %d vs %d", len(strict), len(all))
	}
	for _, f := range strict {
		if f.Support < 5 {
			t.Errorf("support %d below 5", f.Support)
		}
	}
}
