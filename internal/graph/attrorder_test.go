package graph_test

import (
	"strings"
	"testing"

	"github.com/cwru-db/fgs/internal/gen"
)

// TestAttrKeyOrderStable builds the same generator graph several times in
// one process. Generators hand AddNode each node's attributes as a map, so
// interning keys in map iteration order gave a user's keys a different ID
// order, and the full-literal fallback patterns a different literal order,
// from one build to the next. Keys now intern in sorted order: the orgs
// bring "industry", and the first user the other four, alphabetically.
func TestAttrKeyOrderStable(t *testing.T) {
	keys := func() string {
		g := gen.LKI(7, 1)
		u := g.NodesWithLabel("user")[0]
		var names []string
		for _, a := range g.Attrs(u) {
			names = append(names, g.AttrKeyName(a.Key))
		}
		return strings.Join(names, ",")
	}
	const want = "industry,city,degree,exp,gender"
	for i := 0; i < 12; i++ {
		if got := keys(); got != want {
			t.Fatalf("build %d: a user's keys in ID order are %s, want %s", i, got, want)
		}
	}
}
