package pattern

import (
	"math/rand"
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
)

// bruteEmbeddings is a reference implementation of anchored subgraph
// isomorphism: enumerate every injective assignment of pattern nodes to
// graph nodes with the focus pinned, check all constraints, and hand each
// embedding (pattern node -> graph node) to visit until it returns false.
// Exponential, only usable on tiny inputs — which is exactly what makes it
// a trustworthy oracle for the optimized matcher.
func bruteEmbeddings(g *graph.Graph, p *Pattern, anchor graph.NodeID, visit func(assign []graph.NodeID) bool) {
	n := len(p.Nodes)
	assign := make([]graph.NodeID, n)
	used := make(map[graph.NodeID]bool)

	nodeOK := func(u int, v graph.NodeID) bool {
		if g.LabelOf(v) != p.Nodes[u].Label {
			return false
		}
		for _, lit := range p.Nodes[u].Literals {
			got, ok := g.AttrString(v, lit.Key)
			if !ok || got != lit.Val {
				return false
			}
		}
		return true
	}
	edgesOK := func() bool {
		for _, e := range p.Edges {
			lid, ok := g.EdgeLabelID(e.Label)
			if !ok || !g.HasEdge(assign[e.From], assign[e.To], lid) {
				return false
			}
		}
		return true
	}

	var rec func(u int) bool
	rec = func(u int) bool {
		if u == n {
			return !edgesOK() || visit(assign)
		}
		if u == p.Focus {
			return rec(u + 1)
		}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if used[v] || !nodeOK(u, v) {
				continue
			}
			assign[u] = v
			used[v] = true
			cont := rec(u + 1)
			delete(used, v)
			if !cont {
				return false
			}
		}
		return true
	}

	if !nodeOK(p.Focus, anchor) {
		return
	}
	assign[p.Focus] = anchor
	used[anchor] = true
	rec(0)
}

// bruteMatchAt reports whether the oracle finds any embedding at anchor.
func bruteMatchAt(g *graph.Graph, p *Pattern, anchor graph.NodeID) bool {
	found := false
	bruteEmbeddings(g, p, anchor, func([]graph.NodeID) bool {
		found = true
		return false
	})
	return found
}

// randomPattern grows a small random connected pattern.
func randomPattern(rng *rand.Rand, labels, elabels []string, maxNodes int) *Pattern {
	p := NewNodePattern(labels[rng.Intn(len(labels))])
	if rng.Intn(2) == 0 {
		p.Nodes[0].Literals = []Literal{{Key: "a", Val: []string{"1", "2"}[rng.Intn(2)]}}
	}
	size := 1 + rng.Intn(maxNodes)
	for len(p.Nodes) < size {
		at := rng.Intn(len(p.Nodes))
		p = p.AddLeaf(at, Node{Label: labels[rng.Intn(len(labels))]}, elabels[rng.Intn(len(elabels))], rng.Intn(2) == 0)
	}
	// Occasionally close a cycle.
	if len(p.Nodes) >= 3 && rng.Intn(2) == 0 {
		from := rng.Intn(len(p.Nodes))
		to := rng.Intn(len(p.Nodes))
		if from != to {
			if q := p.AddClosingEdge(from, to, elabels[rng.Intn(len(elabels))]); q != nil {
				p = q
			}
		}
	}
	return p
}

// randomDenseGraph builds a small random labeled attributed graph.
func randomDenseGraph(rng *rand.Rand, n int, labels, elabels []string) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		var attrs map[string]string
		if rng.Intn(2) == 0 {
			attrs = map[string]string{"a": []string{"1", "2"}[rng.Intn(2)]}
		}
		g.AddNode(labels[rng.Intn(len(labels))], attrs)
	}
	m := n * 2
	for i := 0; i < m; i++ {
		_ = g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), elabels[rng.Intn(len(elabels))])
	}
	return g
}

// TestMatchAtAgainstBruteForce cross-checks the backtracking matcher against
// the exhaustive oracle on hundreds of random (graph, pattern, anchor)
// triples.
func TestMatchAtAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	labels := []string{"x", "y"}
	elabels := []string{"e", "f"}
	for trial := 0; trial < 150; trial++ {
		g := randomDenseGraph(rng, 8, labels, elabels)
		m := NewMatcher(g, 0)
		p := randomPattern(rng, labels, elabels, 4)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid pattern: %v", trial, err)
		}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			want := bruteMatchAt(g, p, v)
			got := m.MatchAt(p, v)
			if got != want {
				t.Fatalf("trial %d: MatchAt(%s, %d) = %v, oracle says %v", trial, p, v, got, want)
			}
		}
	}
}

// TestBackEdgeIntoHubAgainstBruteForce closes a triangle through a hub
// whose adjacency lists exceed the matcher's 32-entry scan limit, so the
// back edge is verified by Graph.EdgeIDBetween in both orientations: h -> y
// probes the hub's long out-list, y -> h its long in-list. Coverage and the
// recorded P_E edge IDs must equal the brute-force oracle's at every
// anchor.
func TestBackEdgeIntoHubAgainstBruteForce(t *testing.T) {
	g := graph.New()
	hub := g.AddNode("h", nil)
	var xs, ys []graph.NodeID
	for i := 0; i < 7; i++ {
		xs = append(xs, g.AddNode("x", nil))
	}
	for j := 0; j < 40; j++ {
		ys = append(ys, g.AddNode("y", nil))
	}
	add := func(from, to graph.NodeID, label string) {
		if err := g.AddEdge(from, to, label); err != nil {
			t.Fatal(err)
		}
	}
	for i, x := range xs[:6] {
		add(x, hub, "e")
		for j := i; j < len(ys); j += 6 {
			add(x, ys[j], "e")
		}
	}
	// The last anchor's y-neighbours all miss the hub's "e" edge (j%4 == 0),
	// so its back-edge probes fail on the label.
	add(xs[6], hub, "e")
	for _, j := range []int{0, 4, 8} {
		add(xs[6], ys[j], "e")
	}
	for j, y := range ys {
		add(hub, y, "f")
		if j%4 != 0 {
			add(hub, y, "e")
		}
		if j%3 != 0 {
			add(y, hub, "f")
		}
		if j%5 == 0 {
			add(y, hub, "e")
		}
	}
	if len(g.Out(hub)) <= 32 || len(g.In(hub)) <= 32 {
		t.Fatalf("hub lists out=%d in=%d, want both > 32", len(g.Out(hub)), len(g.In(hub)))
	}

	base := NewNodePattern("x").
		AddLeaf(0, Node{Label: "h"}, "e", true).
		AddLeaf(0, Node{Label: "y"}, "e", true)
	patterns := []*Pattern{
		base.AddClosingEdge(1, 2, "e"), // h -> y: the hub's out-list
		base.AddClosingEdge(2, 1, "f"), // y -> h: the hub's in-list
	}
	m := NewMatcher(g, 0)
	for _, p := range patterns {
		matched := 0
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			want := map[graph.EdgeID]bool{}
			bruteEmbeddings(g, p, v, func(assign []graph.NodeID) bool {
				for _, e := range p.Edges {
					lid, _ := g.EdgeLabelID(e.Label)
					id, _ := g.EdgeIDOf(graph.EdgeRef{From: assign[e.From], To: assign[e.To], Label: lid})
					want[id] = true
				}
				return true
			})
			edges := graph.AcquireEdgeAcc(0)
			ok := m.CoveredEdgeBitsAt(p, v, edges)
			if ok != (len(want) > 0) || ok != m.MatchAt(p, v) {
				t.Fatalf("%s at %d: matcher says %v, oracle found %d edges", p, v, ok, len(want))
			}
			if !ok {
				edges.Release()
				continue
			}
			matched++
			got := 0
			edges.Bits().Iterate(func(id graph.EdgeID) {
				got++
				if !want[id] {
					t.Errorf("%s at %d: covered edge %v is in no oracle embedding", p, v, g.EdgeRefOf(id))
				}
			})
			if got != len(want) || len(edges.IDs()) != len(want) {
				t.Errorf("%s at %d: %d covered edges (%d listed), oracle has %d", p, v, got, len(edges.IDs()), len(want))
			}
			edges.Release()
		}
		if matched == 0 || matched == len(xs) {
			t.Errorf("%s: %d of %d anchors match, want a mix", p, matched, len(xs))
		}
	}
}

// TestCoveredEdgesAreRealMatches: every edge reported by CoveredEdgesAt must
// exist in the graph and carry a label some pattern edge requires.
func TestCoveredEdgesAreRealMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(987))
	labels := []string{"x", "y"}
	elabels := []string{"e", "f"}
	for trial := 0; trial < 60; trial++ {
		g := randomDenseGraph(rng, 8, labels, elabels)
		m := NewMatcher(g, 0)
		p := randomPattern(rng, labels, elabels, 4)
		wantLabels := map[string]bool{}
		for _, e := range p.Edges {
			wantLabels[e.Label] = true
		}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			edges, ok := m.CoveredEdgesAt(p, v)
			if !ok {
				continue
			}
			if len(p.Edges) > 0 && edges.Len() == 0 {
				t.Fatalf("trial %d: embedding exists but no covered edges", trial)
			}
			for e := range edges {
				if !g.HasEdge(e.From, e.To, e.Label) {
					t.Fatalf("trial %d: covered edge %v not in graph", trial, e)
				}
				if !wantLabels[g.EdgeLabelName(e.Label)] {
					t.Fatalf("trial %d: covered edge label %q not in pattern", trial, g.EdgeLabelName(e.Label))
				}
			}
		}
	}
}

// Dual simulation must be complete w.r.t. isomorphism on random inputs: any
// node the backtracking matcher covers is in the simulation cover.
func TestDualSimCompleteOnRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	labels := []string{"x", "y"}
	elabels := []string{"e", "f"}
	for trial := 0; trial < 60; trial++ {
		g := randomDenseGraph(rng, 8, labels, elabels)
		m := NewMatcher(g, 0)
		p := randomPattern(rng, labels, elabels, 4)
		sim := m.SimCover(p)
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if m.MatchAt(p, v) {
				if sim == nil || !sim.Has(v) {
					t.Fatalf("trial %d: iso-covered node %d missing from dual simulation (pattern %s)", trial, v, p)
				}
			}
		}
	}
}
