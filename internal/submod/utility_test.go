package submod

import (
	"math/rand"
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
)

// socialFixture builds a small co-review network with ratings.
func socialFixture(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	// 0..3 candidates with ratings; 4..9 reviewers.
	g.AddNode("user", map[string]string{"rating": "4.5"})
	g.AddNode("user", map[string]string{"rating": "3.0"})
	g.AddNode("user", map[string]string{"rating": "bogus"})
	g.AddNode("user", nil)
	for i := 0; i < 6; i++ {
		g.AddNode("user", nil)
	}
	edges := [][2]graph.NodeID{{4, 0}, {5, 0}, {6, 0}, {5, 1}, {6, 1}, {7, 2}, {8, 3}, {9, 3}}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1], "corev"); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestRatingSum(t *testing.T) {
	g := socialFixture(t)
	u := NewRatingSum(g, "rating")
	if got := u.Marginal(0); got != 4.5 {
		t.Fatalf("Marginal(0) = %v, want 4.5", got)
	}
	if got := u.Marginal(2); got != 0 { // unparsable value rates 0
		t.Fatalf("Marginal(2) = %v, want 0", got)
	}
	if got := u.Marginal(3); got != 0 { // missing attribute rates 0
		t.Fatalf("Marginal(3) = %v, want 0", got)
	}
	u.Add(0)
	u.Add(1)
	if u.Value() != 7.5 {
		t.Fatalf("Value = %v, want 7.5", u.Value())
	}
	if u.Marginal(0) != 0 {
		t.Fatal("Marginal of selected node should be 0")
	}
	u.Add(0) // double add is a no-op
	if u.Value() != 7.5 {
		t.Fatal("double Add changed value")
	}
	u.Remove(1)
	if u.Value() != 4.5 {
		t.Fatalf("after Remove Value = %v, want 4.5", u.Value())
	}
	u.Remove(1) // double remove is a no-op
	if u.Value() != 4.5 {
		t.Fatal("double Remove changed value")
	}
	u.Reset()
	if u.Value() != 0 {
		t.Fatal("Reset did not zero value")
	}
}

func TestRatingSumUnknownKey(t *testing.T) {
	g := socialFixture(t)
	u := NewRatingSum(g, "doesnotexist")
	if u.Marginal(0) != 0 {
		t.Fatal("unknown key should rate all nodes 0")
	}
}

func TestNeighborCoverageInMode(t *testing.T) {
	g := socialFixture(t)
	u := NewNeighborCoverage(g, NeighborsIn, "corev")
	// N(0) = {4,5,6}, N(1) = {5,6}: union 3, overlap 2.
	if got := u.Marginal(0); got != 3 {
		t.Fatalf("Marginal(0) = %v, want 3", got)
	}
	u.Add(0)
	if got := u.Marginal(1); got != 0 { // {5,6} already covered
		t.Fatalf("Marginal(1) after adding 0 = %v, want 0", got)
	}
	u.Add(1)
	if u.Value() != 3 {
		t.Fatalf("Value = %v, want 3", u.Value())
	}
	u.Remove(0)
	// Only node 1 remains: covers {5,6}.
	if u.Value() != 2 {
		t.Fatalf("after removing 0 Value = %v, want 2", u.Value())
	}
}

func TestNeighborCoverageModes(t *testing.T) {
	g := graph.New()
	a := g.AddNode("x", nil)
	b := g.AddNode("x", nil)
	c := g.AddNode("x", nil)
	if err := g.AddEdge(a, b, "e"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(c, a, "e"); err != nil {
		t.Fatal(err)
	}
	in := NewNeighborCoverage(g, NeighborsIn, "")
	out := NewNeighborCoverage(g, NeighborsOut, "")
	both := NewNeighborCoverage(g, NeighborsBoth, "")
	if in.Marginal(a) != 1 { // c->a
		t.Errorf("in-mode Marginal(a) = %v", in.Marginal(a))
	}
	if out.Marginal(a) != 1 { // a->b
		t.Errorf("out-mode Marginal(a) = %v", out.Marginal(a))
	}
	if both.Marginal(a) != 2 {
		t.Errorf("both-mode Marginal(a) = %v", both.Marginal(a))
	}
}

func TestNeighborCoverageUnknownLabel(t *testing.T) {
	g := socialFixture(t)
	u := NewNeighborCoverage(g, NeighborsIn, "nolabel")
	if u.Marginal(0) != 0 {
		t.Fatal("unknown edge label should yield zero coverage")
	}
	u.Add(0)
	if u.Value() != 0 {
		t.Fatal("unknown edge label should keep value at 0")
	}
}

func TestCardinality(t *testing.T) {
	u := NewCardinality()
	if u.Marginal(1) != 1 {
		t.Fatal("Marginal of new node should be 1")
	}
	u.Add(1)
	u.Add(2)
	if u.Value() != 2 || u.Marginal(1) != 0 {
		t.Fatalf("Value=%v Marginal(1)=%v", u.Value(), u.Marginal(1))
	}
	u.Remove(1)
	if u.Value() != 1 {
		t.Fatal("Remove failed")
	}
}

// Property: the built-in utilities are monotone and submodular, and Marginal
// is consistent with Add/Value. Checked on random graphs and random sets.
func TestUtilityAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomSocialGraph(rng, 30, 80)
	utils := map[string]Utility{
		"rating":   NewRatingSum(g, "rating"),
		"coverage": NewNeighborCoverage(g, NeighborsIn, ""),
		"card":     NewCardinality(),
	}
	for name, u := range utils {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				// Random nested sets A ⊆ B and a node v ∉ B.
				perm := rng.Perm(g.NumNodes())
				aLen := rng.Intn(10)
				bLen := aLen + rng.Intn(10)
				v := graph.NodeID(perm[bLen])
				setB := make([]graph.NodeID, bLen)
				for i := 0; i < bLen; i++ {
					setB[i] = graph.NodeID(perm[i])
				}
				setA := setB[:aLen]

				// Marginal consistency: F(A∪v) - F(A) == Marginal(v) at A.
				u.Reset()
				for _, x := range setA {
					u.Add(x)
				}
				fa := u.Value()
				mA := u.Marginal(v)
				u.Add(v)
				if diff := u.Value() - fa; !approxEq(diff, mA) {
					t.Fatalf("trial %d: Marginal inconsistent: %v vs %v", trial, mA, diff)
				}

				// Monotonicity: marginals are never negative.
				if mA < 0 {
					t.Fatalf("trial %d: negative marginal %v", trial, mA)
				}

				// Submodularity: gain at A >= gain at B ⊇ A.
				u.Reset()
				for _, x := range setB {
					u.Add(x)
				}
				mB := u.Marginal(v)
				if mB > mA+1e-9 {
					t.Fatalf("trial %d: submodularity violated: gain at A=%v < gain at B=%v", trial, mA, mB)
				}

				// Remove inverts Add.
				u.Reset()
				for _, x := range setA {
					u.Add(x)
				}
				before := u.Value()
				u.Add(v)
				u.Remove(v)
				if !approxEq(u.Value(), before) {
					t.Fatalf("trial %d: Add/Remove not inverse: %v vs %v", trial, before, u.Value())
				}
			}
		})
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// randomSocialGraph builds a random graph with ratings for the axioms test.
func randomSocialGraph(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		var attrs map[string]string
		if rng.Intn(2) == 0 {
			attrs = map[string]string{"rating": []string{"1", "2.5", "4", "5"}[rng.Intn(4)]}
		}
		g.AddNode("user", attrs)
	}
	for i := 0; i < m; i++ {
		_ = g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), "corev")
	}
	return g
}

func TestEvalIsStateless(t *testing.T) {
	g := socialFixture(t)
	u := NewNeighborCoverage(g, NeighborsIn, "corev")
	u.Add(3) // dirty state
	got := Eval(u, []graph.NodeID{0, 1})
	if got != 3 {
		t.Fatalf("Eval = %v, want 3", got)
	}
	if u.Value() != 0 {
		t.Fatal("Eval should leave the utility reset")
	}
}

// TestParseUtility checks each spec builds the utility it names: a marginal
// on one node tells coverage (all in-edges or one label), rating (the
// attribute read) and the rest apart.
func TestParseUtility(t *testing.T) {
	g := graph.New()
	v := g.AddNode("user", map[string]string{"rating": "2", "score": "5", "industry": "Internet"})
	rec := g.AddNode("user", nil)
	fol := g.AddNode("user", nil)
	if err := g.AddEdge(rec, v, "recommend"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(fol, v, "follow"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec    string
		want    float64
		wantErr bool
	}{
		{spec: "coverage", want: 2},
		{spec: "coverage:recommend", want: 1},
		{spec: "rating", want: 2},
		{spec: "rating:score", want: 5},
		{spec: "diversity", wantErr: true},
		{spec: "diversity:industry", want: 1},
		{spec: "cardinality", want: 1},
		{spec: "", want: 2},
		{spec: "bogus", wantErr: true},
	} {
		u, err := ParseUtility(g, tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseUtility(%q) = %T, want an error", tc.spec, u)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseUtility(%q): %v", tc.spec, err)
			continue
		}
		if got := u.Marginal(v); got != tc.want {
			t.Errorf("ParseUtility(%q) marginal = %v, want %v", tc.spec, got, tc.want)
		}
	}
}
