package mining

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
)

func benchNetwork(tb testing.TB, n int) (*graph.Graph, []graph.NodeID) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode("user", map[string]string{
			"exp":  strconv.Itoa(1 + rng.Intn(8)),
			"city": "c" + strconv.Itoa(rng.Intn(20)),
		})
	}
	for i := 0; i < n*3; i++ {
		_ = g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), "corev")
	}
	anchors := make([]graph.NodeID, 40)
	for i := range anchors {
		anchors[i] = graph.NodeID(rng.Intn(n))
	}
	return g, anchors
}

func BenchmarkSumGen(b *testing.B) {
	g, anchors := benchNetwork(b, 2000)
	cfg := Config{Radius: 2, MaxNodes: 4, MaxLiterals: 2, MaxPatterns: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		er := NewErCache(g, 2)
		SumGen(g, anchors, anchors, cfg, er)
	}
}

// BenchmarkSumGenParallel sweeps the worker count over the same workload as
// BenchmarkSumGen (workers=1 is the sequential engine). The speedup scales
// with available cores — on a single-core machine the sweep only measures
// pipeline overhead, so run it on multicore hardware to reproduce the
// speedup numbers; output is byte-identical at every setting either way.
func BenchmarkSumGenParallel(b *testing.B) {
	g, anchors := benchNetwork(b, 4000)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := Config{Radius: 2, MaxNodes: 4, MaxLiterals: 2, MaxPatterns: 100, Workers: w}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				er := NewErCache(g, 2)
				SumGen(g, anchors, anchors, cfg, er)
			}
		})
	}
}

// BenchmarkErCacheWarm measures parallel pre-warming of E_v^r across worker
// counts (workers=1 is a plain sequential fill).
func BenchmarkErCacheWarm(b *testing.B) {
	g, _ := benchNetwork(b, 4000)
	nodes := g.NodesWithLabel("user")[:1000]
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				NewErCache(g, 2).Warm(nodes, w)
			}
		})
	}
}

func BenchmarkFrequent(b *testing.B) {
	g, _ := benchNetwork(b, 2000)
	universe := g.NodesWithLabel("user")[:500]
	cfg := Config{Radius: 2, MaxNodes: 3, MaxLiterals: 1, MaxPatterns: 60}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Frequent(g, universe, cfg, 20, 2)
	}
}

func BenchmarkErCacheGet(b *testing.B) {
	g, anchors := benchNetwork(b, 2000)
	er := NewErCache(g, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		er.Get(anchors[i%len(anchors)])
	}
}
