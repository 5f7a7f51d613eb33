package pattern

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// legacyCanonicalCode is the canonical code as it was first written, kept as
// an oracle: the minimal full-string serialization over every
// connectivity-respecting ordering with the focus first, with no pruning.
// CanonicalCode's strings differ from it, but the two must split patterns
// into the same classes.
func legacyCanonicalCode(p *Pattern) string {
	n := len(p.Nodes)
	adj := p.undirectedAdj()
	best := ""
	placed := make([]bool, n)
	var rec func(order []int)
	rec = func(order []int) {
		if len(order) == n {
			if code := legacySerialize(p, order); best == "" || code < best {
				best = code
			}
			return
		}
		tried := make(map[int]bool)
		for _, u := range order {
			for _, v := range adj[u] {
				if placed[v] || tried[v] {
					continue
				}
				tried[v] = true
				placed[v] = true
				rec(append(order, v))
				placed[v] = false
			}
		}
	}
	placed[p.Focus] = true
	rec([]int{p.Focus})
	return best
}

// legacySerialize renders the pattern under a fixed node ordering: node
// signatures in order, then edges rewritten to positions, sorted.
func legacySerialize(p *Pattern, order []int) string {
	pos := make([]int, len(p.Nodes))
	for i, u := range order {
		pos[u] = i
	}
	var b strings.Builder
	for _, u := range order {
		b.WriteString(nodeSig(p.Nodes[u]))
		b.WriteString(";")
	}
	edges := make([]string, len(p.Edges))
	for i, e := range p.Edges {
		edges[i] = fmt.Sprintf("%d>%d:%s", pos[e.From], pos[e.To], e.Label)
	}
	sort.Strings(edges)
	b.WriteString(strings.Join(edges, "|"))
	return b.String()
}

// randomCanonPattern builds a connected pattern of 1..maxNodes nodes over
// small label alphabets (so unrelated patterns are often isomorphic), with
// literals on any node, a random spanning tree and a few closing edges.
func randomCanonPattern(rng *rand.Rand, maxNodes int) *Pattern {
	labels := []string{"a", "b"}
	elabels := []string{"e", "f"}
	n := 1 + rng.Intn(maxNodes)
	p := &Pattern{Focus: rng.Intn(n), Nodes: make([]Node, n)}
	for i := range p.Nodes {
		p.Nodes[i].Label = labels[rng.Intn(len(labels))]
		if rng.Intn(4) == 0 {
			p.Nodes[i].Literals = append(p.Nodes[i].Literals, Literal{Key: "k", Val: []string{"1", "2"}[rng.Intn(2)]})
		}
		if rng.Intn(8) == 0 {
			p.Nodes[i].Literals = append(p.Nodes[i].Literals, Literal{Key: "j", Val: "1"})
		}
	}
	has := func(from, to int, label string) bool {
		for _, e := range p.Edges {
			if e.From == from && e.To == to && e.Label == label {
				return true
			}
		}
		return false
	}
	addEdge := func(a, b int) {
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		if l := elabels[rng.Intn(len(elabels))]; !has(a, b, l) {
			p.Edges = append(p.Edges, Edge{From: a, To: b, Label: l})
		}
	}
	for i := 1; i < n; i++ {
		addEdge(i, rng.Intn(i))
	}
	for extra := rng.Intn(n); extra > 0; extra-- {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			addEdge(a, b)
		}
	}
	return p
}

// TestCanonicalCodeMatchesLegacyClasses checks that CanonicalCode and the
// legacy serializer agree on which patterns are equal, over a pool of
// random patterns and isomorphic relabelings of them: every pair in the
// pool (about 200,000) is equal under one code exactly when it is equal
// under the other.
func TestCanonicalCodeMatchesLegacyClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var pool []*Pattern
	for len(pool) < 640 {
		p := randomCanonPattern(rng, 6)
		if err := p.Validate(); err != nil {
			t.Fatalf("generated invalid pattern %s: %v", p, err)
		}
		pool = append(pool, p, permute(p, rng))
	}
	newOf := map[string]string{} // legacy code -> new code
	legacyOf := map[string]string{}
	first := map[string]*Pattern{} // new code -> first pattern with it
	for i, p := range pool {
		code, legacy := CanonicalCode(p), legacyCanonicalCode(p)
		if i%2 == 1 && code != CanonicalCode(pool[i-1]) {
			t.Fatalf("relabeling changed the code:\n %s\n %s", pool[i-1], p)
		}
		if want, ok := newOf[legacy]; ok && want != code {
			t.Fatalf("legacy-equal patterns got different codes:\n %s\n %s", first[want], p)
		}
		if want, ok := legacyOf[code]; ok && want != legacy {
			t.Fatalf("legacy-distinct patterns share a code:\n %s\n %s", first[code], p)
		}
		newOf[legacy], legacyOf[code] = code, legacy
		if first[code] == nil {
			first[code] = p
		}
	}
	if len(legacyOf) < 100 || len(legacyOf) > len(pool)/2 {
		t.Fatalf("%d classes among %d patterns: the pool should hold both many classes and many repeats", len(legacyOf), len(pool))
	}
}
