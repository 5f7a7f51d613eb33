package graph

import (
	"math/rand"
	"testing"
)

// Tests for the dense EdgeID space: stability while an edge lives, sentinel
// behavior after removal, and LIFO free-list reuse keeping the space dense
// under churn (see DESIGN.md §9).

func TestEdgeIDStableAndResolvable(t *testing.T) {
	g := New()
	a := g.AddNode("user", nil)
	b := g.AddNode("user", nil)
	c := g.AddNode("user", nil)
	for _, pair := range [][2]NodeID{{a, b}, {b, c}, {a, c}} {
		if err := g.AddEdge(pair[0], pair[1], "e"); err != nil {
			t.Fatal(err)
		}
	}
	lid, _ := g.EdgeLabelID("e")
	if g.EdgeIDBound() != 3 {
		t.Fatalf("EdgeIDBound = %d, want 3", g.EdgeIDBound())
	}
	// Every adjacency entry carries the ID that EdgeIDOf resolves for its ref,
	// in both directions.
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, e := range g.Out(v) {
			ref := EdgeRef{From: v, To: e.To, Label: e.Label}
			id, ok := g.EdgeIDOf(ref)
			if !ok || id != e.ID {
				t.Fatalf("EdgeIDOf(%v) = %d,%v, adjacency says %d", ref, id, ok, e.ID)
			}
			if got := g.EdgeRefOf(id); got != ref {
				t.Fatalf("EdgeRefOf(%d) = %v, want %v", id, got, ref)
			}
		}
		for _, e := range g.In(v) {
			ref := EdgeRef{From: e.To, To: v, Label: e.Label}
			if id, ok := g.EdgeIDOf(ref); !ok || id != e.ID {
				t.Fatalf("in-adjacency ID mismatch for %v", ref)
			}
		}
	}
	_ = lid
}

func TestEdgeIDFreeListReuse(t *testing.T) {
	g := New()
	a := g.AddNode("user", nil)
	b := g.AddNode("user", nil)
	c := g.AddNode("user", nil)
	mustAdd := func(from, to NodeID, label string) EdgeID {
		t.Helper()
		if err := g.AddEdge(from, to, label); err != nil {
			t.Fatal(err)
		}
		id, ok := g.EdgeIDOf(EdgeRef{From: from, To: to, Label: mustLabel(t, g, label)})
		if !ok {
			t.Fatalf("edge (%d,%d,%s) not resolvable after add", from, to, label)
		}
		return id
	}
	id0 := mustAdd(a, b, "e")
	id1 := mustAdd(b, c, "e")
	id2 := mustAdd(a, c, "e")
	if id0 != 0 || id1 != 1 || id2 != 2 {
		t.Fatalf("insertion IDs = %d,%d,%d, want 0,1,2", id0, id1, id2)
	}

	// Removing frees the ID: the def slot turns into the sentinel and the ref
	// no longer resolves.
	if err := g.RemoveEdge(b, c, "e"); err != nil {
		t.Fatal(err)
	}
	if ref := g.EdgeRefOf(id1); ref.From != -1 || ref.To != -1 {
		t.Fatalf("EdgeRefOf(freed) = %v, want sentinel", ref)
	}
	if _, ok := g.EdgeIDOf(EdgeRef{From: b, To: c, Label: mustLabel(t, g, "e")}); ok {
		t.Fatal("removed edge still resolves to an ID")
	}
	// Surviving edges keep their IDs: no remap on delete.
	if got := g.EdgeRefOf(id2); got != (EdgeRef{From: a, To: c, Label: mustLabel(t, g, "e")}) {
		t.Fatalf("surviving edge remapped: EdgeRefOf(%d) = %v", id2, got)
	}

	// The next insertion reuses the freed slot (LIFO), keeping the bound dense.
	id3 := mustAdd(c, a, "e")
	if id3 != id1 {
		t.Fatalf("reused ID = %d, want freed %d", id3, id1)
	}
	if g.EdgeIDBound() != 3 {
		t.Fatalf("EdgeIDBound = %d after reuse, want 3", g.EdgeIDBound())
	}

	// LIFO order across multiple removals.
	if err := g.RemoveEdge(a, b, "e"); err != nil { // frees 0
		t.Fatal(err)
	}
	if err := g.RemoveEdge(a, c, "e"); err != nil { // frees 2
		t.Fatal(err)
	}
	first := mustAdd(b, a, "e")
	second := mustAdd(c, b, "e")
	if first != id2 || second != id0 {
		t.Fatalf("reuse order = %d,%d, want LIFO %d,%d", first, second, id2, id0)
	}
}

// TestEdgeIDDenseUnderChurn randomly interleaves adds and removes and checks
// the ID space never grows past the high-water mark of live edges.
func TestEdgeIDDenseUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := New()
	const n = 15
	for i := 0; i < n; i++ {
		g.AddNode("x", nil)
	}
	type key struct{ from, to NodeID }
	present := map[key]bool{}
	high := 0
	for step := 0; step < 3000; step++ {
		k := key{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
		if present[k] && rng.Intn(2) == 0 {
			if err := g.RemoveEdge(k.from, k.to, "e"); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			present[k] = false
		} else if !present[k] {
			if err := g.AddEdge(k.from, k.to, "e"); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			present[k] = true
		}
		if live := g.NumEdges(); live > high {
			high = live
		}
		if g.EdgeIDBound() > high {
			t.Fatalf("step %d: EdgeIDBound %d exceeds high-water mark %d — free list leaking",
				step, g.EdgeIDBound(), high)
		}
	}
	// Every live edge still resolves and its adjacency ID agrees.
	lid := mustLabel(t, g, "e")
	for k, ok := range present {
		if !ok {
			continue
		}
		id, found := g.EdgeIDOf(EdgeRef{From: k.from, To: k.to, Label: lid})
		if !found {
			t.Fatalf("live edge %v lost its ID", k)
		}
		hit := false
		for _, e := range g.Out(k.from) {
			if e.To == k.to && e.Label == lid && e.ID == id {
				hit = true
			}
		}
		if !hit {
			t.Fatalf("adjacency ID for %v disagrees with index", k)
		}
	}
}

func mustLabel(t *testing.T, g *Graph, label string) LabelID {
	t.Helper()
	lid, ok := g.EdgeLabelID(label)
	if !ok {
		t.Fatalf("label %q not interned", label)
	}
	return lid
}

// TestEdgeIDBetweenMatchesEdgeIDOf drives every probe path of EdgeIDBetween
// — the short out-list scan, the short in-list scan behind a long out-list,
// the edge-index lookup when both lists are long, and the range guard — and
// requires the same answer as the plain edge-index lookup EdgeIDOf.
func TestEdgeIDBetweenMatchesEdgeIDOf(t *testing.T) {
	g := New()
	out := g.AddNode("hub", nil) // 11 out-edges, 10 in-edges
	in := g.AddNode("hub", nil)  // 11 in-edges, 10 out-edges
	leaf := func() NodeID { return g.AddNode("leaf", nil) }
	mustAdd := func(from, to NodeID, label string) {
		t.Helper()
		if err := g.AddEdge(from, to, label); err != nil {
			t.Fatal(err)
		}
	}
	var outLeaf NodeID
	for i := 0; i < 10; i++ {
		l := leaf()
		mustAdd(out, l, "e")
		mustAdd(leaf(), in, "e")
		mustAdd(in, leaf(), "e")
		mustAdd(leaf(), out, "e")
		if i == 3 {
			outLeaf = l
		}
	}
	inLeaf := leaf()
	mustAdd(outLeaf, inLeaf, "f")
	mustAdd(out, in, "e")
	lonely := leaf()
	e, f := mustLabel(t, g, "e"), mustLabel(t, g, "f")
	n := NodeID(g.NumNodes())

	cases := []struct {
		name     string
		from, to NodeID
		label    LabelID
		want     bool
	}{
		{"short out-list hit", outLeaf, inLeaf, f, true},
		{"short out-list miss", outLeaf, lonely, f, false},
		{"long out-list, short in-list hit", out, outLeaf, e, true},
		{"long out-list, short in-list miss", out, inLeaf, e, false},
		{"both lists long hit", out, in, e, true},
		{"both lists long wrong label", out, in, f, false},
		{"short in-list wrong label", out, outLeaf, f, false},
		{"reversed direction, short list", outLeaf, out, e, false},
		{"reversed direction, both lists long", in, out, e, false},
		{"from below range", -1, in, e, false},
		{"from past range", n, in, e, false},
		{"to past range behind a long out-list", out, n, e, false},
	}
	for _, c := range cases {
		id, ok := g.EdgeIDBetween(c.from, c.to, c.label)
		ref := EdgeRef{From: c.from, To: c.to, Label: c.label}
		wantID, wantOK := g.EdgeIDOf(ref)
		if ok != c.want || ok != wantOK || id != wantID {
			t.Errorf("%s: EdgeIDBetween(%d, %d, %d) = %d, %v; EdgeIDOf = %d, %v; want found=%v",
				c.name, c.from, c.to, c.label, id, ok, wantID, wantOK, c.want)
		}
		if ok && g.EdgeRefOf(id) != ref {
			t.Errorf("%s: EdgeRefOf(%d) = %v, want %v", c.name, id, g.EdgeRefOf(id), ref)
		}
	}
}
