package mining

import (
	"slices"
	"sync"
	"testing"

	"github.com/cwru-db/fgs/internal/gen"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/pattern"
)

// requireSameCandidates asserts two SumGen outputs are byte-identical:
// same length, same order, and per-candidate equality of pattern, coverage,
// covered edges, C_P, and fallback flag.
func requireSameCandidates(t *testing.T, want, got []*Candidate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("candidate counts differ: sequential %d, parallel %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if pattern.CanonicalCode(w.P) != pattern.CanonicalCode(g.P) {
			t.Fatalf("candidate %d pattern differs: %s vs %s", i, w.P, g.P)
		}
		if w.Fallback != g.Fallback {
			t.Fatalf("candidate %d fallback flag differs", i)
		}
		if w.CP != g.CP {
			t.Fatalf("candidate %d (%s): CP %d vs %d", i, w.P, w.CP, g.CP)
		}
		if len(w.Covered) != len(g.Covered) {
			t.Fatalf("candidate %d (%s): |Covered| %d vs %d", i, w.P, len(w.Covered), len(g.Covered))
		}
		for j := range w.Covered {
			if w.Covered[j] != g.Covered[j] {
				t.Fatalf("candidate %d (%s): Covered[%d] %d vs %d", i, w.P, j, w.Covered[j], g.Covered[j])
			}
		}
		if !slices.Equal(w.CoveredEdges, g.CoveredEdges) {
			t.Fatalf("candidate %d (%s): CoveredEdges %v vs %v", i, w.P, w.CoveredEdges, g.CoveredEdges)
		}
	}
}

// labelNodes returns up to n nodes with the given label, in ID order.
func labelNodes(g *graph.Graph, label string, n int) []graph.NodeID {
	nodes := g.NodesWithLabel(label)
	if len(nodes) > n {
		nodes = nodes[:n]
	}
	return nodes
}

// TestSumGenParallelMatchesSequential is the core determinism guarantee of
// the scoring pipeline: for every worker count, SumGen output must be
// byte-identical to the sequential run, across the three figure datasets.
func TestSumGenParallelMatchesSequential(t *testing.T) {
	datasets := []struct {
		name  string
		g     *graph.Graph
		label string
	}{
		{"LKI", gen.LKI(7, 1), "user"},
		{"DBP", gen.DBP(8, 1), "movie"},
		{"Cite", gen.Cite(9, 1), "paper"},
	}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			anchors := labelNodes(ds.g, ds.label, 40)
			if len(anchors) == 0 {
				t.Fatalf("no %s nodes in %s", ds.label, ds.name)
			}
			cfg := Config{Radius: 2, MaxNodes: 4, MaxLiterals: 2, MaxPatterns: 120}
			seq := SumGen(ds.g, anchors, anchors, cfg, nil)
			for _, w := range []int{2, 3, 8} {
				pcfg := cfg
				pcfg.Workers = w
				par := SumGen(ds.g, anchors, anchors, pcfg, nil)
				requireSameCandidates(t, seq, par)
			}
		})
	}
}

// TestSumGenParallelBudgetAndNilScores drives the two paths where the
// pipeline's speculation is visible internally: a tight MaxPatterns budget
// (the producer overruns it and the committer must discard the overshoot)
// and a universe disjoint from the anchors (score returns nil candidates,
// which must not consume budget in either implementation).
func TestSumGenParallelBudgetAndNilScores(t *testing.T) {
	g := gen.LKI(13, 1)
	users := g.NodesWithLabel("user")
	if len(users) < 60 {
		t.Fatalf("LKI too small: %d users", len(users))
	}
	cases := []struct {
		name     string
		anchors  []graph.NodeID
		universe []graph.NodeID
		cfg      Config
	}{
		{
			name:     "tight-budget",
			anchors:  users[:40],
			universe: users[:40],
			cfg:      Config{Radius: 2, MaxNodes: 4, MaxLiterals: 2, MaxPatterns: 7},
		},
		{
			name:     "disjoint-universe",
			anchors:  users[:20],
			universe: users[20:60],
			cfg:      Config{Radius: 2, MaxNodes: 3, MaxLiterals: 2, MaxPatterns: 40},
		},
		{
			name:     "anchors-only-scoring",
			anchors:  users[:30],
			universe: users[:50],
			cfg:      Config{Radius: 2, MaxNodes: 4, MaxLiterals: 2, MaxPatterns: 60, ScoreAnchorsOnly: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := SumGen(g, tc.anchors, tc.universe, tc.cfg, nil)
			for _, w := range []int{2, 8} {
				pcfg := tc.cfg
				pcfg.Workers = w
				par := SumGen(g, tc.anchors, tc.universe, pcfg, nil)
				requireSameCandidates(t, seq, par)
			}
		})
	}
}

// TestFrequentParallelMatchesSequential checks the frequent miner inherits
// the same guarantee through the shared engine.
func TestFrequentParallelMatchesSequential(t *testing.T) {
	g := gen.LKI(17, 1)
	universe := labelNodes(g, "user", 80)
	cfg := Config{Radius: 2, MaxNodes: 3, MaxLiterals: 1, MaxPatterns: 60}
	seq := Frequent(g, universe, cfg, 20, 2)
	pcfg := cfg
	pcfg.Workers = 4
	par := Frequent(g, universe, pcfg, 20, 2)
	if len(seq) != len(par) {
		t.Fatalf("frequent counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if pattern.CanonicalCode(seq[i].P) != pattern.CanonicalCode(par[i].P) {
			t.Fatalf("frequent %d pattern differs: %s vs %s", i, seq[i].P, par[i].P)
		}
		if seq[i].Support != par[i].Support {
			t.Fatalf("frequent %d support differs: %d vs %d", i, seq[i].Support, par[i].Support)
		}
	}
}

// TestErCacheComputesOnce has eight goroutines Get overlapping node sets
// from one cache, with no Invalidate: every set must equal a direct BFS, and
// the BFS must run once per distinct node, since it runs under the lock
// that concurrent Gets of one node share.
func TestErCacheComputesOnce(t *testing.T) {
	g := gen.LKI(19, 1)
	nodes := labelNodes(g, "user", 48)
	er := NewErCache(g, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			// Each goroutine reads half the nodes from its own offset, so
			// every node is wanted by several goroutines at once.
			for i := 0; i < len(nodes)/2; i++ {
				v := nodes[(off+i)%len(nodes)]
				got, want := er.Get(v), g.RHopEdgeBits(v, 2)
				if got.Count() != want.Count() || got.AndNotCount(want) != 0 {
					t.Errorf("node %d: cached E_v^r has %d edges, %d not in the direct BFS of %d", v, got.Count(), got.AndNotCount(want), want.Count())
					return
				}
			}
		}(w * 6)
	}
	wg.Wait()
	misses := 0.0
	for _, m := range er.ObsMetrics() {
		if m.Name == "fgs_ercache_misses_total" {
			misses += m.Value
		}
	}
	if int(misses) != len(nodes) {
		t.Fatalf("%v misses over %d distinct nodes: some E_v^r was computed more than once", misses, len(nodes))
	}
}

// TestErCacheConcurrent hammers one cache from many goroutines (Get across
// overlapping node sets plus Invalidate) — meaningful chiefly under -race.
func TestErCacheConcurrent(t *testing.T) {
	g := gen.LKI(23, 1)
	nodes := labelNodes(g, "user", 64)
	er := NewErCache(g, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := range nodes {
				v := nodes[(i+off)%len(nodes)]
				if es := er.Get(v); es.Count() != g.RHopEdges(v, 2).Len() {
					// t.Errorf is goroutine-safe.
					t.Errorf("node %d: concurrent Get returned wrong size", v)
					return
				}
			}
		}(w * 7)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			er.Invalidate(nodes[:8])
		}
	}()
	wg.Wait()
}

// TestSumGenParallelUsesSuppliedCache checks the parallel run populates the
// caller's cache just like the sequential run (buildSummary relies on it).
func TestSumGenParallelUsesSuppliedCache(t *testing.T) {
	g := gen.LKI(29, 1)
	anchors := labelNodes(g, "user", 30)
	er := NewErCache(g, 2)
	cfg := Config{Radius: 2, MaxNodes: 4, MaxLiterals: 2, MaxPatterns: 50, Workers: 4}
	cands := SumGen(g, anchors, anchors, cfg, er)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		union := er.UnionOf(c.Covered)
		if want := union.AndNotCount(edgeBitsOf(c.CoveredEdges)); c.CP != want {
			t.Fatalf("pattern %s: CP=%d, recomputed %d", c.P, c.CP, want)
		}
	}
}
