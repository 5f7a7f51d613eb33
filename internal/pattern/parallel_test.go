package pattern

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
)

func TestCoverAmongParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := graph.New()
	n := 600 // above parallelThreshold
	for i := 0; i < n; i++ {
		var attrs map[string]string
		if rng.Intn(3) == 0 {
			attrs = map[string]string{"exp": "5"}
		}
		g.AddNode("user", attrs)
	}
	for i := 0; i < n*2; i++ {
		_ = g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), "recommend")
	}
	candidates := g.NodesWithLabel("user")

	patterns := []*Pattern{
		star(),
		star(Literal{Key: "exp", Val: "5"}),
		NewNodePattern("user").AddLeaf(0, Node{Label: "user"}, "recommend", true),
	}
	seq := NewMatcher(g, 0)
	par := NewMatcher(g, 0)
	par.SetWorkers(4)
	for _, p := range patterns {
		want := seq.CoverAmong(p, candidates)
		got := par.CoverAmong(p, candidates)
		if len(want) != len(got) {
			t.Fatalf("pattern %s: sequential %d vs parallel %d", p, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("pattern %s: order differs at %d: %d vs %d", p, i, want[i], got[i])
			}
		}
	}
}

func TestSetWorkersClamps(t *testing.T) {
	m := NewMatcher(graph.New(), 0)
	m.SetWorkers(-5)
	if m.workers != 0 {
		t.Fatal("negative workers not clamped")
	}
	m.SetWorkers(1 << 20)
	if m.workers < 1 {
		t.Fatal("huge worker count not clamped to GOMAXPROCS")
	}
}

func BenchmarkCoverAmongSequential(b *testing.B) {
	g := benchSocialGraph(b, 4000)
	m := NewMatcher(g, 0)
	p := star()
	cands := g.NodesWithLabel("user")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CoverAmong(p, cands)
	}
}

func BenchmarkCoverAmongParallel4(b *testing.B) {
	g := benchSocialGraph(b, 4000)
	m := NewMatcher(g, 0)
	m.SetWorkers(4)
	p := star()
	cands := g.NodesWithLabel("user")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CoverAmong(p, cands)
	}
}

// TestSearchPoolSharedAcrossGraphs runs matchers over two graphs of
// different sizes from several goroutines at once, as fgsd's per-request
// matchers do, so pooled scratch (stamps and intersection indexes) built
// for one graph is reused on the other. Every result must equal the one
// computed alone.
func TestSearchPoolSharedAcrossGraphs(t *testing.T) {
	big, _, _ := hubGraph(t, 300, 3, 1)
	small, _, _ := hubGraph(t, 40, 2, 2)
	p := hubPatterns()[0].p
	covered := func(g *graph.Graph) []int {
		m := NewMatcher(g, 7)
		out := make([]int, g.NumNodes())
		for v := range out {
			edges := graph.AcquireEdgeAcc(0)
			if m.CoveredEdgeBitsAt(p, graph.NodeID(v), edges) {
				out[v] = 1 + len(edges.IDs())
			}
			edges.Release()
		}
		return out
	}
	want := map[*graph.Graph][]int{big: covered(big), small: covered(small)}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		g := big
		if i%2 == 1 {
			g = small
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if got := covered(g); fmt.Sprint(got) != fmt.Sprint(want[g]) {
					t.Errorf("graph of %d nodes: concurrent result differs", g.NumNodes())
					return
				}
			}
		}()
	}
	wg.Wait()
}
