package graph

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the substrate's hot paths: adjacency scans, the
// r-hop operators, and edge-set arithmetic.

func benchGraph(b *testing.B, n, m int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode("user", map[string]string{"exp": "5"})
	}
	for i := 0; i < m; i++ {
		_ = g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), "e")
	}
	return g
}

func BenchmarkAddEdge(b *testing.B) {
	g := New()
	n := 1000
	for i := 0; i < n; i++ {
		g.AddNode("user", nil)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), "e")
	}
}

// BenchmarkAddEdgeHighDegree inserts onto one hub node whose out-list already
// holds tens of thousands of edges. The duplicate probe is an edgeIndex map
// lookup, so cost must stay flat in the hub's degree (it used to scan the
// adjacency list — O(deg) per insert, quadratic for this loop).
func BenchmarkAddEdgeHighDegree(b *testing.B) {
	g := New()
	hub := g.AddNode("hub", nil)
	const fanout = 50000
	for i := 0; i < fanout; i++ {
		g.AddNode("user", nil)
	}
	for i := 0; i < fanout; i++ {
		_ = g.AddEdge(hub, NodeID(i+1), "e")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate duplicate probes (hit) and fresh inserts followed by
		// removal (miss) so both paths stay high-degree.
		_ = g.AddEdge(hub, NodeID(i%fanout+1), "e")
		if err := g.AddEdge(NodeID(i%fanout+1), hub, "back"); err == nil && i%2 == 0 {
			_ = g.RemoveEdge(NodeID(i%fanout+1), hub, "back")
		}
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph(b, 2000, 8000)
	lid, _ := g.EdgeLabelID("e")
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(NodeID(rng.Intn(2000)), NodeID(rng.Intn(2000)), lid)
	}
}

func BenchmarkRHopNodes2(b *testing.B) {
	g := benchGraph(b, 5000, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RHopNodes(NodeID(i%5000), 2)
	}
}

func BenchmarkRHopEdges2(b *testing.B) {
	g := benchGraph(b, 5000, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RHopEdges(NodeID(i%5000), 2)
	}
}

func BenchmarkEdgeSetMinus(b *testing.B) {
	g := benchGraph(b, 2000, 8000)
	a := g.RHopEdges(0, 3)
	c := g.RHopEdges(1, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Minus(c)
	}
}
