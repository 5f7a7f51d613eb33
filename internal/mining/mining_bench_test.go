package mining

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"github.com/cwru-db/fgs/internal/gen"
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

// BenchmarkSumGenHub mines at r = 2 around eight users of the LKI
// generator's 20,000-node co-review network, whose preferential attachment
// gives a few users thousands of in-edges: the anchors' neighbourhoods reach
// those hubs, as fgsd's requests do. BenchmarkSumGen's uniform random graph
// has no hubs.
func BenchmarkSumGenHub(b *testing.B) {
	g := gen.LKISized(1, 20000)
	anchors := nodesWith(g, "user", "city", "c0", "c1")[:8]
	cfg := Config{Radius: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SumGen(g, anchors, anchors, cfg, NewErCache(g, 2))
	}
}

// BenchmarkSumGenHubParallel runs BenchmarkSumGenHub's graph and anchors
// through the scoring pipeline at 1 and 2 workers: fgsd mines at
// GOMAXPROCS workers, BenchmarkSumGenHub at the sequential default. The
// output is the same at both counts; only the wall time may differ.
func BenchmarkSumGenHubParallel(b *testing.B) {
	g := gen.LKISized(1, 20000)
	anchors := nodesWith(g, "user", "city", "c0", "c1")[:8]
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := Config{Radius: 2, Workers: w}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SumGen(g, anchors, anchors, cfg, NewErCache(g, 2))
			}
		})
	}
}
