package pattern

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
)

// Micro-benchmarks for the matcher — T_I in the paper's cost analysis.

func benchSocialGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := graph.New()
	for i := 0; i < n; i++ {
		attrs := map[string]string{"exp": []string{"3", "4", "5"}[rng.Intn(3)]}
		g.AddNode("user", attrs)
	}
	for i := 0; i < n*3; i++ {
		_ = g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), "recommend")
	}
	return g
}

func BenchmarkMatchAtStar(b *testing.B) {
	g := benchSocialGraph(b, 2000)
	m := NewMatcher(g, 0)
	p := star(Literal{Key: "exp", Val: "5"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchAt(p, graph.NodeID(i%2000))
	}
}

func BenchmarkMatchAtChain3(b *testing.B) {
	g := benchSocialGraph(b, 2000)
	m := NewMatcher(g, 0)
	p := &Pattern{
		Focus: 0,
		Nodes: []Node{{Label: "user"}, {Label: "user"}, {Label: "user"}, {Label: "user"}},
		Edges: []Edge{{1, 0, "recommend"}, {2, 1, "recommend"}, {3, 2, "recommend"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchAt(p, graph.NodeID(i%2000))
	}
}

func BenchmarkCoveredEdgesAt(b *testing.B) {
	g := benchSocialGraph(b, 2000)
	m := NewMatcher(g, 64)
	p := star()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CoveredEdgesAt(p, graph.NodeID(i%2000))
	}
}

func BenchmarkDualSim(b *testing.B) {
	g := benchSocialGraph(b, 2000)
	m := NewMatcher(g, 0)
	p := star(Literal{Key: "exp", Val: "4"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DualSim(p)
	}
}

func BenchmarkCanonicalCode(b *testing.B) {
	p := &Pattern{
		Focus: 0,
		Nodes: []Node{{Label: "a"}, {Label: "b"}, {Label: "c"}, {Label: "b"}, {Label: "a"}},
		Edges: []Edge{{0, 1, "e"}, {1, 2, "e"}, {0, 3, "f"}, {3, 2, "e"}, {4, 0, "e"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CanonicalCode(p)
	}
}

// BenchmarkMatchHubClosingEdge runs the shape whose closing edge meets a
// hub's in-list (hubPatterns' "in-list": two linked users pointing at the
// anchor's hub) at the next user per op: one MatchAt and one
// CoveredEdgeBitsAt under the miner's default cap of 512. hub is the hub's
// in-degree from users, links each user's out-links to other users, so the
// back-edge list is about links long. The plain scan costs about hub entries
// per placement of the third node; the intersection about links. The
// intersection thresholds in match.go come from this sweep.
func BenchmarkMatchHubClosingEdge(b *testing.B) {
	for _, sz := range []struct{ hub, links int }{{32, 3}, {64, 3}, {256, 3}, {256, 16}, {4096, 3}} {
		b.Run(fmt.Sprintf("hub=%d/links=%d", sz.hub, sz.links), func(b *testing.B) {
			g, _, users := hubGraph(b, sz.hub, sz.links, 1)
			p := hubPatterns()[0].p
			m := NewMatcher(g, 512)
			edges := graph.AcquireEdgeAcc(g.EdgeIDBound())
			defer edges.Release()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := users[i%len(users)]
				m.MatchAt(p, v)
				m.CoveredEdgeBitsAt(p, v, edges)
			}
		})
	}
}
