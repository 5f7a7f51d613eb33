package graph

import (
	"slices"
	"sync"
)

// EdgeAcc accumulates a duplicate-free list of edge IDs, the form P_E takes
// while the matcher collects it: a bitset over the EdgeID space answers
// "seen already?" in one word probe, and the list keeps what was added, so
// a pattern's few hundred edges come out without sweeping a graph-wide
// bitset. Reset clears only the words the listed IDs set, which makes reuse
// cost O(IDs) rather than O(graph).
//
// Accumulators are pooled package-wide (AcquireEdgeAcc/Release), as the
// matcher's search scratch is: fgsd builds its mining state per request,
// and one pool serves every graph, since Add grows the bitset to any ID and
// Reset leaves no bit set whatever the width. An accumulator is not safe
// for concurrent use.
type EdgeAcc struct {
	bits EdgeBits
	ids  []EdgeID
}

var edgeAccPool sync.Pool

// AcquireEdgeAcc returns an empty accumulator from the pool with room for
// IDs below bound. Release it when done.
func AcquireEdgeAcc(bound int) *EdgeAcc {
	a, _ := edgeAccPool.Get().(*EdgeAcc)
	if a == nil {
		a = &EdgeAcc{}
	}
	if bound > 0 {
		a.bits.b.ensure(bound - 1)
	}
	return a
}

// Release empties a and returns it to the pool; a must not be used after.
func (a *EdgeAcc) Release() {
	a.Reset()
	edgeAccPool.Put(a)
}

// Add inserts an edge ID; an ID already present is ignored.
func (a *EdgeAcc) Add(id EdgeID) {
	if a.bits.b.add(int(id)) {
		a.ids = append(a.ids, id)
	}
}

// IDs returns the accumulated IDs in insertion order. The slice belongs to
// a and is valid until the next Add, Reset or Release.
func (a *EdgeAcc) IDs() []EdgeID { return a.ids }

// Sorted returns a fresh ascending copy of the IDs, never nil.
func (a *EdgeAcc) Sorted() []EdgeID {
	out := make([]EdgeID, len(a.ids))
	copy(out, a.ids)
	slices.Sort(out)
	return out
}

// Bits returns the accumulator's bitset for membership tests and as a
// read-only set operand (C_P's not operand). It is valid until the next
// Reset or Release.
func (a *EdgeAcc) Bits() *EdgeBits { return &a.bits }

// Reset empties a, clearing only the words its IDs set.
func (a *EdgeAcc) Reset() {
	for _, id := range a.ids {
		a.bits.b.words[id>>6] = 0
	}
	a.bits.b.count = 0
	a.ids = a.ids[:0]
}
