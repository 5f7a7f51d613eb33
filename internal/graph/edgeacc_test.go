package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// checkAccEmpty asserts a holds no ID and its bitset no set bit.
func checkAccEmpty(t *testing.T, what string, a *EdgeAcc) {
	t.Helper()
	if len(a.IDs()) != 0 || a.Bits().Count() != 0 {
		t.Fatalf("%s: %d IDs listed, count %d, want empty", what, len(a.IDs()), a.Bits().Count())
	}
	for w, word := range a.bits.b.words {
		if word != 0 {
			t.Fatalf("%s: word %d still holds %#x", what, w, word)
		}
	}
}

// TestEdgeAccUnique adds IDs with many repeats and checks the list holds
// each exactly once, in insertion order, and agrees with the bitset.
func TestEdgeAccUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := AcquireEdgeAcc(200)
	defer a.Release()
	var order []EdgeID
	seen := map[EdgeID]bool{}
	for i := 0; i < 1000; i++ {
		id := EdgeID(rng.Intn(300)) // beyond the acquired bound too
		a.Add(id)
		if !seen[id] {
			seen[id] = true
			order = append(order, id)
		}
	}
	if !slices.Equal(a.IDs(), order) {
		t.Fatalf("IDs = %v, want first occurrences %v", a.IDs(), order)
	}
	if len(a.IDs()) != len(seen) || a.Bits().Count() != len(seen) {
		t.Fatalf("%d IDs listed, bitset count %d, want %d", len(a.IDs()), a.Bits().Count(), len(seen))
	}
	sorted := a.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i] <= sorted[i-1] {
			t.Fatalf("Sorted not strictly ascending at %d: %v", i, sorted)
		}
	}
	for id := EdgeID(0); id < 300; id++ {
		if a.Bits().Has(id) != seen[id] {
			t.Fatalf("Has(%d) = %v, want %v", id, a.Bits().Has(id), seen[id])
		}
	}
	// Sorted is a copy: later adds leave it alone.
	before := slices.Clone(sorted)
	a.Add(299)
	a.Add(1000)
	if !slices.Equal(sorted, before) {
		t.Fatal("Sorted shares storage with the accumulator")
	}
	var empty EdgeAcc
	if got := empty.Sorted(); got == nil || len(got) != 0 {
		t.Fatalf("Sorted of an empty accumulator = %#v, want empty and non-nil", got)
	}
}

// TestEdgeAccResetAcrossWidths reuses one accumulator on a wide and a
// narrow graph in both orders, as the package pool does: Reset must leave
// no bit set whatever width the previous graph had, and each use must see
// only its own IDs.
func TestEdgeAccResetAcrossWidths(t *testing.T) {
	build := func(edges int) *Graph {
		g := New()
		for i := 0; i <= edges; i++ {
			g.AddNode("n", nil)
		}
		for i := 0; i < edges; i++ {
			if err := g.AddEdge(NodeID(i), NodeID(i+1), "e"); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	wide, narrow := build(5000), build(90)
	rng := rand.New(rand.NewSource(11))
	use := func(a *EdgeAcc, g *Graph) {
		t.Helper()
		want := map[EdgeID]bool{}
		for i := 0; i < 400; i++ {
			id := EdgeID(rng.Intn(g.EdgeIDBound()))
			want[id] = true
			a.Add(id)
		}
		if len(a.IDs()) != len(want) {
			t.Fatalf("bound %d: %d IDs, want %d", g.EdgeIDBound(), len(a.IDs()), len(want))
		}
		for _, id := range a.IDs() {
			if !want[id] {
				t.Fatalf("bound %d: stray ID %d", g.EdgeIDBound(), id)
			}
		}
		// The edge set the IDs name is the graph's own.
		if es := g.EdgeSetOfIDs(a.IDs()); es.Len() != len(want) {
			t.Fatalf("bound %d: EdgeSetOfIDs holds %d edges, want %d", g.EdgeIDBound(), es.Len(), len(want))
		}
	}
	for _, order := range [][]*Graph{{wide, narrow, wide}, {narrow, wide, narrow}} {
		a := &EdgeAcc{}
		for _, g := range order {
			a.Reset()
			checkAccEmpty(t, "after Reset", a)
			use(a, g)
		}
		a.Reset()
		checkAccEmpty(t, "final Reset", a)
	}
	// Through the pool: whatever accumulator comes back is empty.
	for _, g := range []*Graph{wide, narrow, wide} {
		a := AcquireEdgeAcc(g.EdgeIDBound())
		checkAccEmpty(t, "acquired", a)
		use(a, g)
		a.Release()
	}
}
