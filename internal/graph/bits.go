package graph

import "math/bits"

// Dense bitsets over the graph's integer ID spaces — the flat hot-path
// representation behind EdgeSet/NodeSet (see DESIGN.md §9). A bitset stores
// membership in packed 64-bit words indexed by EdgeID/NodeID, so the inner
// loops of covered-edge accumulation, greedy cover, and C_P scoring touch
// one word per 64 IDs instead of one hash probe per element, and iteration
// is ascending-ID by construction — deterministic without a sort.
//
// The zero value of either type is an empty set; sets grow automatically on
// Add/Union, so a set built against a smaller graph stays valid (queries for
// IDs beyond the backing words report false). Bitsets are not safe for
// concurrent mutation; the pipelines share them read-only (ErCache contract).

// bitset is the shared untyped core of EdgeBits and NodeBits.
type bitset struct {
	words []uint64
	count int
}

// ensure grows the backing words so bit i is addressable.
func (b *bitset) ensure(i int) {
	w := i>>6 + 1
	if w <= len(b.words) {
		return
	}
	if w <= cap(b.words) {
		b.words = b.words[:w]
		return
	}
	nw := make([]uint64, w, max(w, 2*cap(b.words)))
	copy(nw, b.words)
	b.words = nw
}

// add sets bit i and reports whether it was clear before.
func (b *bitset) add(i int) bool {
	b.ensure(i)
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.count++
	return true
}

func (b *bitset) has(i int) bool {
	w := i >> 6
	return i >= 0 && w < len(b.words) && b.words[w]&(uint64(1)<<(uint(i)&63)) != 0
}

func (b *bitset) remove(i int) {
	w := i >> 6
	if i < 0 || w >= len(b.words) {
		return
	}
	m := uint64(1) << (uint(i) & 63)
	if b.words[w]&m != 0 {
		b.words[w] &^= m
		b.count--
	}
}

// union folds other into b, maintaining the cached count.
func (b *bitset) union(other *bitset) {
	if other.count == 0 {
		return
	}
	if len(other.words) > len(b.words) {
		b.ensure(len(other.words)<<6 - 1)
	}
	for w, ow := range other.words {
		if ow == 0 {
			continue
		}
		old := b.words[w]
		nw := old | ow
		if nw != old {
			b.count += bits.OnesCount64(nw) - bits.OnesCount64(old)
			b.words[w] = nw
		}
	}
}

// minus returns b \ other as a fresh bitset.
func (b *bitset) minus(other *bitset) bitset {
	d := bitset{words: make([]uint64, len(b.words))}
	for w, bw := range b.words {
		if w < len(other.words) {
			bw &^= other.words[w]
		}
		d.words[w] = bw
		d.count += bits.OnesCount64(bw)
	}
	return d
}

// andNotCount reports |b \ other| without materializing it.
func (b *bitset) andNotCount(other *bitset) int {
	n := 0
	for w, bw := range b.words {
		if w < len(other.words) {
			bw &^= other.words[w]
		}
		n += bits.OnesCount64(bw)
	}
	return n
}

func (b *bitset) clone() bitset {
	return bitset{words: append([]uint64(nil), b.words...), count: b.count}
}

// iterate calls f for every set bit in ascending ID order.
func (b *bitset) iterate(f func(int)) {
	for w, bw := range b.words {
		base := w << 6
		for bw != 0 {
			f(base + bits.TrailingZeros64(bw))
			bw &= bw - 1
		}
	}
}

// EdgeBits is a set of edges keyed by dense EdgeID. Prefer it over EdgeSet on
// every hot path; convert at API boundaries with Graph.EdgeSetOf/EdgeBitsOf.
type EdgeBits struct{ b bitset }

// NewEdgeBits returns an empty edge bitset with room for IDs below capacity.
func NewEdgeBits(capacity int) *EdgeBits {
	s := &EdgeBits{}
	if capacity > 0 {
		s.b.words = make([]uint64, (capacity+63)>>6)
	}
	return s
}

// Add inserts an edge ID.
func (s *EdgeBits) Add(id EdgeID) { s.b.add(int(id)) }

// Has reports membership.
func (s *EdgeBits) Has(id EdgeID) bool { return s.b.has(int(id)) }

// Count reports the number of edges (O(1): the count is maintained).
func (s *EdgeBits) Count() int { return s.b.count }

// Union folds other into s.
func (s *EdgeBits) Union(other *EdgeBits) { s.b.union(&other.b) }

// Minus returns s \ other as a new set.
func (s *EdgeBits) Minus(other *EdgeBits) *EdgeBits { return &EdgeBits{b: s.b.minus(&other.b)} }

// AndNotCount reports |s \ other| without materializing the difference.
func (s *EdgeBits) AndNotCount(other *EdgeBits) int { return s.b.andNotCount(&other.b) }

// UnionAndNotCount reports |(∪ sets) \ not| without materializing the
// union: it gathers the union a block of unionBlock words at a time in a
// stack buffer, so the sweep neither allocates nor writes a set as wide as
// the largest operand.
func UnionAndNotCount(sets []*EdgeBits, not *EdgeBits) int {
	var acc [unionBlock]uint64
	width := 0
	for _, s := range sets {
		width = max(width, len(s.b.words))
	}
	n := 0
	for base := 0; base < width; base += unionBlock {
		blk := acc[:min(unionBlock, width-base)]
		clear(blk)
		for _, s := range sets {
			if ws := s.b.words; base < len(ws) {
				for i, w := range ws[base:min(base+len(blk), len(ws))] {
					blk[i] |= w
				}
			}
		}
		if ws := not.b.words; base < len(ws) {
			for i, w := range ws[base:min(base+len(blk), len(ws))] {
				blk[i] &^= w
			}
		}
		for _, w := range blk {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// unionBlock is UnionAndNotCount's block size in words: 4 KiB, which stays
// in L1 while every operand's block is folded in.
const unionBlock = 512

// Clone returns an independent copy.
func (s *EdgeBits) Clone() *EdgeBits { return &EdgeBits{b: s.b.clone()} }

// Iterate calls f for every edge ID in ascending order — deterministic
// iteration with no sort (fgslint: bitset iteration needs no neutralizing
// sort, unlike map ranges).
func (s *EdgeBits) Iterate(f func(EdgeID)) { s.b.iterate(func(i int) { f(EdgeID(i)) }) }

// NodeBits is a set of nodes keyed by NodeID.
type NodeBits struct{ b bitset }

// NewNodeBits returns an empty node bitset with room for IDs below capacity.
func NewNodeBits(capacity int) *NodeBits {
	s := &NodeBits{}
	if capacity > 0 {
		s.b.words = make([]uint64, (capacity+63)>>6)
	}
	return s
}

// NodeBitsOf builds a set from a slice.
func NodeBitsOf(ids []NodeID) *NodeBits {
	s := &NodeBits{}
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts a node.
func (s *NodeBits) Add(id NodeID) { s.b.add(int(id)) }

// Has reports membership.
func (s *NodeBits) Has(id NodeID) bool { return s.b.has(int(id)) }

// Remove deletes a node.
func (s *NodeBits) Remove(id NodeID) { s.b.remove(int(id)) }

// Count reports the number of nodes (O(1)).
func (s *NodeBits) Count() int { return s.b.count }

// Union folds other into s.
func (s *NodeBits) Union(other *NodeBits) { s.b.union(&other.b) }

// Minus returns s \ other as a new set.
func (s *NodeBits) Minus(other *NodeBits) *NodeBits { return &NodeBits{b: s.b.minus(&other.b)} }

// AndNotCount reports |s \ other|.
func (s *NodeBits) AndNotCount(other *NodeBits) int { return s.b.andNotCount(&other.b) }

// Clone returns an independent copy.
func (s *NodeBits) Clone() *NodeBits { return &NodeBits{b: s.b.clone()} }

// Iterate calls f for every node ID in ascending order.
func (s *NodeBits) Iterate(f func(NodeID)) { s.b.iterate(func(i int) { f(NodeID(i)) }) }
