package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/cwru-db/fgs/internal/gen"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/mining"
)

// benchCoverInstance builds a cover instance shaped like real SumGen output:
// many candidates with Zipf-ish overlapping coverage over a universe sized so
// the greedy runs for a few hundred rounds.
func benchCoverInstance(nCands, universe int) (cands []*mining.Candidate, vp []graph.NodeID) {
	rng := rand.New(rand.NewSource(3))
	cands = make([]*mining.Candidate, 0, nCands)
	for i := 0; i < nCands; i++ {
		size := 1 + rng.Intn(12)
		set := graph.NewNodeSet(size)
		for len(set) < size {
			// Bias toward low IDs so candidates overlap heavily, as broad
			// patterns over real anchors do.
			v := rng.Intn(universe)
			if rng.Intn(3) > 0 {
				v = rng.Intn(1 + universe/4)
			}
			set.Add(graph.NodeID(v))
		}
		covered := make([]graph.NodeID, 0, size)
		for v := range set {
			covered = append(covered, v)
		}
		sortNodes(covered)
		cands = append(cands, &mining.Candidate{
			Covered: covered,
			CP:      rng.Intn(30),
		})
	}
	vp = make([]graph.NodeID, universe)
	for i := range vp {
		vp[i] = graph.NodeID(i)
	}
	return cands, vp
}

// BenchmarkGreedyCover compares the incremental lazy-heap implementation
// against the per-round rescan it replaced, across candidate-set sizes.
func BenchmarkGreedyCover(b *testing.B) {
	impls := []struct {
		name string
		fn   func([]*mining.Candidate, []graph.NodeID, int, int) ([]PatternInfo, []graph.NodeID)
	}{
		{"incremental", func(cands []*mining.Candidate, vp []graph.NodeID, n, maxPatterns int) ([]PatternInfo, []graph.NodeID) {
			return greedyCover(nil, cands, vp, n, maxPatterns, nil)
		}},
		{"scan", func(cands []*mining.Candidate, vp []graph.NodeID, n, maxPatterns int) ([]PatternInfo, []graph.NodeID) {
			return greedyCoverScan(nil, cands, vp, n, maxPatterns)
		}},
	}
	for _, size := range []struct{ cands, universe int }{
		{200, 300}, {1000, 800}, {4000, 2000},
	} {
		cands, vp := benchCoverInstance(size.cands, size.universe)
		for _, impl := range impls {
			b.Run(fmt.Sprintf("impl=%s/cands=%d", impl.name, size.cands), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					impl.fn(cands, vp, size.universe, 0)
				}
			})
		}
	}
}

// BenchmarkKAPXFGSHub runs k-APXFGS's summarization phase (maxCoverSelect:
// the lazy max-coverage greedy and the node-coverage repair) at r = 2 and
// k = 24 over the candidates SumGen mines around BenchmarkSumGenHub's
// anchors: eight users of the LKI generator's 20,000-node co-review
// network, whose neighbourhoods reach its hubs. Mining runs once, outside
// the timer.
func BenchmarkKAPXFGSHub(b *testing.B) {
	g := gen.LKISized(1, 20000)
	var anchors []graph.NodeID
	for _, v := range g.NodesWithLabel("user") {
		if city, _ := g.AttrString(v, "city"); city == "c0" || city == "c1" {
			anchors = append(anchors, v)
			if len(anchors) == 8 {
				break
			}
		}
	}
	cfg := Config{R: 2, N: len(anchors), K: 24}.withDefaults()
	er := mining.NewErCache(g, cfg.R)
	cands := mining.SumGen(g, anchors, anchors, cfg.Mining, er)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maxCoverSelect(cands, anchors, cfg, er, nil)
	}
}
