package graph

import (
	"math/rand"
	"testing"
)

// Differential property tests: drive EdgeBits/NodeBits through randomized
// operation sequences mirrored against plain map sets, and check that every
// observable (membership, count, iteration order) agrees. The bitsets back
// every hot path, so this is the safety net for the word-level arithmetic.

// refSet is the map-based reference model.
type refSet map[int]struct{}

func (r refSet) clone() refSet {
	c := make(refSet, len(r))
	for k := range r {
		c[k] = struct{}{}
	}
	return c
}

func (r refSet) union(o refSet) {
	for k := range o {
		r[k] = struct{}{}
	}
}

func (r refSet) minus(o refSet) refSet {
	d := refSet{}
	for k := range r {
		if _, ok := o[k]; !ok {
			d[k] = struct{}{}
		}
	}
	return d
}

func (r refSet) andNotCount(o refSet) int { return len(r.minus(o)) }

// checkEdgeBits asserts an EdgeBits agrees with its reference on every
// observable, including strictly-ascending iteration.
func checkEdgeBits(t *testing.T, tag string, s *EdgeBits, ref refSet, idBound int) {
	t.Helper()
	if s.Count() != len(ref) {
		t.Fatalf("%s: Count = %d, want %d", tag, s.Count(), len(ref))
	}
	for i := 0; i < idBound; i++ {
		_, want := ref[i]
		if got := s.Has(EdgeID(i)); got != want {
			t.Fatalf("%s: Has(%d) = %v, want %v", tag, i, got, want)
		}
	}
	prev := -1
	seen := 0
	s.Iterate(func(id EdgeID) {
		if int(id) <= prev {
			t.Fatalf("%s: Iterate not strictly ascending: %d after %d", tag, id, prev)
		}
		if _, ok := ref[int(id)]; !ok {
			t.Fatalf("%s: Iterate yielded %d, not in reference", tag, id)
		}
		prev = int(id)
		seen++
	})
	if seen != len(ref) {
		t.Fatalf("%s: Iterate yielded %d IDs, want %d", tag, seen, len(ref))
	}
}

func checkNodeBits(t *testing.T, tag string, s *NodeBits, ref refSet, idBound int) {
	t.Helper()
	if s.Count() != len(ref) {
		t.Fatalf("%s: Count = %d, want %d", tag, s.Count(), len(ref))
	}
	for i := 0; i < idBound; i++ {
		_, want := ref[i]
		if got := s.Has(NodeID(i)); got != want {
			t.Fatalf("%s: Has(%d) = %v, want %v", tag, i, got, want)
		}
	}
	prev := -1
	seen := 0
	s.Iterate(func(id NodeID) {
		if int(id) <= prev {
			t.Fatalf("%s: Iterate not strictly ascending: %d after %d", tag, id, prev)
		}
		prev = int(id)
		seen++
	})
	if seen != len(ref) {
		t.Fatalf("%s: Iterate yielded %d IDs, want %d", tag, seen, len(ref))
	}
}

// TestEdgeBitsDifferential runs randomized Add/Union/Minus/counting ops on a
// pool of EdgeBits and reference sets in lockstep. IDs straddle several word
// boundaries (0..~300) and capacities are deliberately mismatched so growth
// paths get exercised.
func TestEdgeBitsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const idBound = 300
	const pool = 6
	sets := make([]*EdgeBits, pool)
	refs := make([]refSet, pool)
	for i := range sets {
		sets[i] = NewEdgeBits(rng.Intn(idBound)) // varied initial capacity
		refs[i] = refSet{}
	}
	for step := 0; step < 4000; step++ {
		i := rng.Intn(pool)
		j := rng.Intn(pool)
		switch op := rng.Intn(6); op {
		case 0, 1: // Add dominates: sets should fill up
			id := rng.Intn(idBound)
			sets[i].Add(EdgeID(id))
			refs[i][id] = struct{}{}
		case 2: // Union
			sets[i].Union(sets[j])
			refs[i].union(refs[j])
		case 3: // Minus replaces the destination set
			sets[i] = sets[i].Minus(sets[j])
			refs[i] = refs[i].minus(refs[j])
		case 4: // counting queries
			if got, want := sets[i].AndNotCount(sets[j]), refs[i].andNotCount(refs[j]); got != want {
				t.Fatalf("step %d: AndNotCount = %d, want %d", step, got, want)
			}
		case 5: // Clone detaches: mutating the copy must not touch the source
			c := sets[j].Clone()
			c.Add(EdgeID(rng.Intn(idBound)))
			checkEdgeBits(t, "clone-source", sets[j], refs[j], idBound)
			sets[i] = sets[j].Clone()
			refs[i] = refs[j].clone()
		}
		if step%97 == 0 {
			checkEdgeBits(t, "periodic", sets[i], refs[i], idBound)
		}
	}
	for i := range sets {
		checkEdgeBits(t, "final", sets[i], refs[i], idBound)
	}
}

// TestNodeBitsDifferential mirrors the edge test and additionally exercises
// Remove, which NodeBits supports for the greedy-cover remaining set.
func TestNodeBitsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const idBound = 300
	const pool = 6
	sets := make([]*NodeBits, pool)
	refs := make([]refSet, pool)
	for i := range sets {
		sets[i] = NewNodeBits(rng.Intn(idBound))
		refs[i] = refSet{}
	}
	for step := 0; step < 4000; step++ {
		i := rng.Intn(pool)
		j := rng.Intn(pool)
		switch op := rng.Intn(6); op {
		case 0, 1:
			id := rng.Intn(idBound)
			sets[i].Add(NodeID(id))
			refs[i][id] = struct{}{}
		case 2: // Remove, including IDs beyond capacity and absent IDs
			id := rng.Intn(idBound * 2)
			sets[i].Remove(NodeID(id))
			delete(refs[i], id)
		case 3:
			sets[i].Union(sets[j])
			refs[i].union(refs[j])
		case 4:
			sets[i] = sets[i].Minus(sets[j])
			refs[i] = refs[i].minus(refs[j])
		case 5:
			if got, want := sets[i].AndNotCount(sets[j]), refs[i].andNotCount(refs[j]); got != want {
				t.Fatalf("step %d: AndNotCount = %d, want %d", step, got, want)
			}
		}
		if step%97 == 0 {
			checkNodeBits(t, "periodic", sets[i], refs[i], idBound)
		}
	}
	for i := range sets {
		checkNodeBits(t, "final", sets[i], refs[i], idBound)
	}
}

// TestNodeBitsOfAndZeroValue covers the slice constructor and the documented
// zero-value-is-empty contract.
func TestNodeBitsOfAndZeroValue(t *testing.T) {
	s := NodeBitsOf([]NodeID{5, 1, 5, 130})
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3 (duplicate collapsed)", s.Count())
	}
	var got []NodeID
	s.Iterate(func(v NodeID) { got = append(got, v) })
	want := []NodeID{1, 5, 130}
	if len(got) != len(want) {
		t.Fatalf("Iterate = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Iterate = %v, want %v", got, want)
		}
	}

	var zero EdgeBits
	if zero.Count() != 0 || zero.Has(0) {
		t.Fatal("zero EdgeBits is not empty")
	}
	zero.Add(77)
	if !zero.Has(77) || zero.Count() != 1 {
		t.Fatal("zero EdgeBits did not grow on Add")
	}
}
