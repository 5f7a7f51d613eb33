package pattern

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
)

// hubGraph builds a co-review network around hubs: every user points at
// hub 0 with corev, the first users/3 also at hub 1, and each user links to
// a few other users (corev, sometimes also follow). Hub 0 points back at
// every other user with corev, and every fourth user also follows it, so an
// anchor list holds entries of more than one label. Every third user
// carries exp=5.
func hubGraph(tb testing.TB, users, links int, seed int64) (g *graph.Graph, hubs, us []graph.NodeID) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	g = graph.New()
	type key struct {
		from, to graph.NodeID
		label    string
	}
	seen := map[key]bool{}
	add := func(from, to graph.NodeID, label string) {
		if k := (key{from, to, label}); from != to && !seen[k] {
			seen[k] = true
			if err := g.AddEdge(from, to, label); err != nil {
				tb.Fatal(err)
			}
		}
	}
	hubs = []graph.NodeID{g.AddNode("user", nil), g.AddNode("user", nil)}
	for i := 0; i < users; i++ {
		var attrs map[string]string
		if i%3 == 0 {
			attrs = map[string]string{"exp": "5"}
		}
		us = append(us, g.AddNode("user", attrs))
	}
	for i, u := range us {
		// Some users' follow entry precedes their corev entry in the hub's
		// in-list and some follow it.
		if i%8 == 0 {
			add(u, hubs[0], "follow")
		}
		add(u, hubs[0], "corev")
		if i%8 == 4 {
			add(u, hubs[0], "follow")
		}
		if i < users/3 {
			add(u, hubs[1], "corev")
		}
		if i%2 == 0 {
			add(hubs[0], u, "corev")
		}
	}
	for i, u := range us {
		for l := 0; l < links; l++ {
			w := us[rng.Intn(len(us))]
			add(u, w, "corev")
			if i%5 == 0 {
				add(u, w, "follow")
			}
		}
	}
	return g, hubs, us
}

// hubPattern is one hub shape; intersects is set when, anchored at an
// ordinary user, some position takes its candidates from a hub's list and
// has a back edge to an ordinary user's short one.
type hubPattern struct {
	name       string
	p          *Pattern
	intersects bool
}

// hubPatterns are the shapes TestHubIntersectionMatchesPlainScan and
// BenchmarkMatchHubClosingEdge run.
func hubPatterns() []hubPattern {
	users := func(n int) []Node {
		ns := make([]Node, n)
		for i := range ns {
			ns[i] = Node{Label: "user"}
		}
		return ns
	}
	return []hubPattern{
		// Two linked users pointing at the anchor's hub: the mined shape
		// behind most of a summarize request's scans.
		{"in-list", &Pattern{Focus: 0, Nodes: users(4), Edges: []Edge{
			{0, 1, "corev"}, {2, 1, "corev"}, {3, 1, "corev"}, {2, 3, "corev"}}}, true},
		// The same through the hub's out-list.
		{"out-list", &Pattern{Focus: 0, Nodes: users(4), Edges: []Edge{
			{1, 0, "corev"}, {1, 2, "corev"}, {1, 3, "corev"}, {2, 3, "corev"}}}, true},
		// The closing edge carries the other label.
		{"label", &Pattern{Focus: 0, Nodes: users(4), Edges: []Edge{
			{0, 1, "corev"}, {2, 1, "corev"}, {3, 1, "corev"}, {2, 3, "follow"}}}, true},
		// A triangle closed at the focus, with a literal on the far user:
		// candidates come from the focus's own list, so only a hub as the
		// focus intersects.
		{"triangle", &Pattern{Focus: 0, Nodes: []Node{{Label: "user"}, {Label: "user"}, {Label: "user", Literals: []Literal{{Key: "exp", Val: "5"}}}}, Edges: []Edge{
			{0, 1, "corev"}, {2, 1, "corev"}, {0, 2, "corev"}}}, false},
	}
}

// plainCounts are the matcher counters a plain-scan search produces.
type plainCounts struct{ searches, embeddings, expansions, prunes int64 }

// plainSearch is a test-only oracle for Matcher.search: the same compiled
// order and emit contract, but every position scans its whole anchor list
// and verifies back edges through Graph.EdgeIDBetween. emit receives the
// embedding's matched edge IDs.
func plainSearch(g *graph.Graph, c *compiled, anchor graph.NodeID, cnt *plainCounts, emit func(ids []graph.EdgeID) bool) {
	n := len(c.labels)
	assign := make([]graph.NodeID, n)
	tree := make([]graph.EdgeID, n)
	extra := make([][]graph.EdgeID, n)
	used := map[graph.NodeID]bool{anchor: true}
	assign[c.order[0]] = anchor
	cnt.searches++
	var rec func(pos int) bool
	rec = func(pos int) bool {
		if pos == n {
			cnt.embeddings++
			var ids []graph.EdgeID
			for p := 1; p < n; p++ {
				ids = append(append(ids, tree[p]), extra[p]...)
			}
			return emit(ids)
		}
		u, a := c.order[pos], c.anchorOf[pos]
		list := g.Out(assign[a.other])
		if a.out {
			list = g.In(assign[a.other])
		}
		for _, ge := range list {
			v := ge.To
			if ge.Label != a.label {
				continue
			}
			if used[v] || !c.nodeOK(g, u, v) {
				cnt.prunes++
				continue
			}
			var ids []graph.EdgeID
			ok := true
			for _, e := range c.back[pos] {
				from, to := v, assign[e.other]
				if !e.out {
					from, to = to, from
				}
				id, found := g.EdgeIDBetween(from, to, e.label)
				if !found {
					ok = false
					break
				}
				ids = append(ids, id)
			}
			if !ok {
				cnt.prunes++
				continue
			}
			cnt.expansions++
			assign[u], tree[pos], extra[pos], used[v] = v, ge.ID, ids, true
			cont := rec(pos + 1)
			delete(used, v)
			if !cont {
				return false
			}
		}
		return true
	}
	rec(1)
}

// counts reads the matcher's counters.
func counts(m *Matcher) plainCounts {
	return plainCounts{m.searches.Load(), m.embeddings.Load(), m.expansions.Load(), m.prunes.Load()}
}

// TestHubIntersectionMatchesPlainScan checks MatchAt, CoverAmong and
// CoveredEdgeBitsAt, and the searches/embeddings/expansions counters,
// against the plain-scan oracle on hub shapes at several embedding caps. The
// cap keeps the first embeddings found, so equal P_E under a cap means the
// intersection enumerates embeddings in the plain scan's order.
func TestHubIntersectionMatchesPlainScan(t *testing.T) {
	g, hubs, users := hubGraph(t, 100, 3, 18)
	if in := len(g.In(hubs[0])); in <= 64 {
		t.Fatalf("hub in-list holds %d entries, want more than 64", in)
	}
	nodes := append(append([]graph.NodeID(nil), hubs...), users...)
	for _, hp := range hubPatterns() {
		p := hp.p
		for _, embedCap := range []int{0, 1, 7, 512} {
			t.Run(fmt.Sprintf("%s/cap=%d", hp.name, embedCap), func(t *testing.T) {
				m := NewMatcher(g, embedCap)
				c := m.compiledFor(p)
				if !c.ok {
					t.Fatalf("%s does not compile", p)
				}
				var want plainCounts
				var wantCover []graph.NodeID
				matched := 0
				for _, v := range nodes {
					// Oracle: MatchAt, then CoveredEdgeBitsAt.
					wantMatch := false
					wantEdges := graph.NewEdgeBits(0)
					if c.nodeOK(g, c.focus, v) {
						plainSearch(g, c, v, &want, func([]graph.EdgeID) bool { wantMatch = true; return false })
						count := 0
						plainSearch(g, c, v, &want, func(ids []graph.EdgeID) bool {
							for _, id := range ids {
								wantEdges.Add(id)
							}
							count++
							return embedCap == 0 || count < embedCap
						})
					}
					if wantMatch {
						wantCover = append(wantCover, v)
						matched++
					}

					if got := m.MatchAt(p, v); got != wantMatch {
						t.Fatalf("MatchAt(%d) = %v, plain scan says %v", v, got, wantMatch)
					}
					acc := graph.AcquireEdgeAcc(0)
					if got := m.CoveredEdgeBitsAt(p, v, acc); got != wantMatch {
						t.Fatalf("CoveredEdgeBitsAt(%d) = %v, plain scan says %v", v, got, wantMatch)
					}
					gotEdges := acc.Bits()
					if gotEdges.Count() != wantEdges.Count() || gotEdges.AndNotCount(wantEdges) != 0 || len(acc.IDs()) != wantEdges.Count() {
						t.Fatalf("CoveredEdgeBitsAt(%d): %d edges (%d listed), plain scan %d, %d not in it", v, gotEdges.Count(), len(acc.IDs()), wantEdges.Count(), gotEdges.AndNotCount(wantEdges))
					}
					acc.Release()
				}
				got := counts(m)
				if got.searches != want.searches || got.embeddings != want.embeddings || got.expansions != want.expansions {
					t.Fatalf("counters searches/embeddings/expansions %d/%d/%d, plain scan %d/%d/%d",
						got.searches, got.embeddings, got.expansions, want.searches, want.embeddings, want.expansions)
				}
				// A candidate the intersection skips is one the plain scan
				// would have pruned on the back edge.
				if got.prunes > want.prunes || hp.intersects && got.prunes == want.prunes {
					t.Fatalf("%d prunes, plain scan %d: the intersection should skip candidates here only, and did not", got.prunes, want.prunes)
				}
				if matched == 0 || matched == len(nodes) {
					t.Fatalf("%d of %d nodes match, want a mix", matched, len(nodes))
				}

				for _, workers := range []int{1, 4} {
					m.SetWorkers(workers)
					gotCover := m.CoverAmong(p, nodes)
					if fmt.Sprint(gotCover) != fmt.Sprint(wantCover) {
						t.Fatalf("CoverAmong with %d workers = %v, plain scan %v", workers, gotCover, wantCover)
					}
				}
			})
		}
	}
}
