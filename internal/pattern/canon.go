package pattern

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
)

// CanonicalCode returns a string that is identical for isomorphic patterns
// (same focus role, labels, literals, and directed labeled edges) and
// distinct otherwise, for patterns up to canonExactLimit nodes. The miner
// uses it to deduplicate grown patterns.
//
// The code is the lexicographically minimal encoding over all
// connectivity-respecting orderings that place the focus first. An
// ordering's encoding is one chunk per position: the node's signature, then
// its edges to earlier-placed nodes as sorted (position, direction, label)
// triples. Every field is length-prefixed or fixed-width, so no chunk is a
// proper prefix of another. The enumeration is therefore a branch-and-bound
// over byte prefixes: at each position only the nodes with the smallest
// chunk can lead to the minimum, and a branch whose prefix already exceeds
// the best code so far is abandoned. The code is binary, not printable; it
// is only ever compared.
//
// Beyond canonExactLimit nodes an order-insensitive signature is returned
// instead; it never merges non-isomorphic patterns' behaviour incorrectly —
// at worst two isomorphic large patterns both survive dedup, which only
// costs time.
const canonExactLimit = 9

// CanonicalCode computes the canonical code of p.
func CanonicalCode(p *Pattern) string {
	if len(p.Nodes) > canonExactLimit {
		return looseSignature(p)
	}
	e := canonPool.Get().(*canonEnum)
	defer canonPool.Put(e)
	e.reset(p)
	e.buf = e.appendChunk(e.buf, p.Focus, 0)
	e.place(p.Focus, 0)
	e.rec(1, false)
	return string(e.best)
}

// canonPool recycles enumeration buffers: the miner computes a code for
// every extension it generates, tens of thousands per request.
var canonPool = sync.Pool{New: func() any { return new(canonEnum) }}

// canonEnum is one branch-and-bound enumeration of orderings. Node sets are
// bitmasks, which canonExactLimit keeps small.
type canonEnum struct {
	n   int
	sig [][]byte // per node: label and sorted literals, length-prefixed
	// inc lists each node's incident edges from its own side; a self loop
	// appears once.
	inc    [][]canonEdge
	adj    []uint16 // per node: undirected neighbours
	pos    []int    // node -> position, or -1 while unplaced
	placed uint16

	buf  []byte // the current ordering's code prefix
	best []byte // the smallest complete code so far, once gen > 0
	gen  int    // bumped whenever best changes

	// Per position: the candidate chunks, back to back, and which node
	// each belongs to.
	chunks [][]byte
	cands  [][]canonCand
	edges  []canonKey // appendChunk's sort buffer
}

type canonEdge struct {
	other int
	out   bool // the edge leaves this node
	label string
}

type canonCand struct {
	node       int
	start, end int
}

// canonKey is one edge of a chunk: the other endpoint's position, the
// direction, the label.
type canonKey struct {
	pos   int
	out   bool
	label string
}

// reset prepares e for p, keeping buffer capacity.
func (e *canonEnum) reset(p *Pattern) {
	n := len(p.Nodes)
	e.n, e.placed, e.gen = n, 0, 0
	e.buf, e.best = e.buf[:0], e.best[:0]
	e.sig = grow(e.sig, n)
	e.inc = grow(e.inc, n)
	e.chunks = grow(e.chunks, n)
	e.cands = grow(e.cands, n)
	e.adj = grow(e.adj, n)
	e.pos = grow(e.pos, n)
	for u, node := range p.Nodes {
		e.sig[u] = appendNodeSig(e.sig[u][:0], node)
		e.inc[u] = e.inc[u][:0]
		e.adj[u] = 0
		e.pos[u] = -1
	}
	for _, ed := range p.Edges {
		e.inc[ed.From] = append(e.inc[ed.From], canonEdge{other: ed.To, out: true, label: ed.Label})
		if ed.From != ed.To {
			e.inc[ed.To] = append(e.inc[ed.To], canonEdge{other: ed.From, out: false, label: ed.Label})
		}
		e.adj[ed.From] |= 1 << ed.To
		e.adj[ed.To] |= 1 << ed.From
	}
}

// grow returns s with length n, reusing its capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

func (e *canonEnum) place(u, at int) {
	e.pos[u] = at
	e.placed |= 1 << u
}

func (e *canonEnum) unplace(u int) {
	e.pos[u] = -1
	e.placed &^= 1 << u
}

// rec extends the ordering at position depth. tied reports whether the code
// prefix so far equals best's prefix of the same length; false means it is
// already smaller (or there is no best yet).
func (e *canonEnum) rec(depth int, tied bool) {
	if depth == e.n {
		// Tied, the code equals best or is a proper prefix of it.
		if !tied || len(e.buf) < len(e.best) {
			e.best = append(e.best[:0], e.buf...)
			e.gen++
		}
		return
	}
	// Candidates: unplaced nodes adjacent to a placed one, which keeps
	// prefixes connected.
	var frontier uint16
	for m := e.placed; m != 0; m &= m - 1 {
		frontier |= e.adj[bits.TrailingZeros16(m)]
	}
	frontier &^= e.placed
	chunks, cands := e.chunks[depth][:0], e.cands[depth][:0]
	minAt := -1
	for m := frontier; m != 0; m &= m - 1 {
		v := bits.TrailingZeros16(m)
		start := len(chunks)
		chunks = e.appendChunk(chunks, v, depth)
		cands = append(cands, canonCand{node: v, start: start, end: len(chunks)})
		if minAt < 0 || bytes.Compare(chunks[start:], chunks[cands[minAt].start:cands[minAt].end]) < 0 {
			minAt = len(cands) - 1
		}
	}
	e.chunks[depth], e.cands[depth] = chunks, cands
	if minAt < 0 {
		return // disconnected pattern: no complete ordering
	}
	least := chunks[cands[minAt].start:cands[minAt].end]
	start := len(e.buf)
	e.buf = append(e.buf, least...)
	if tied {
		// best[:start] equals the prefix before this chunk. If best ends
		// inside the chunk and matches it so far, best is a proper prefix
		// of every completion, so smaller: Compare reports 1 then too.
		switch bytes.Compare(e.buf[start:], e.best[start:min(len(e.buf), len(e.best))]) {
		case 1:
			e.buf = e.buf[:start]
			return // every completion exceeds best
		case -1:
			tied = false
		}
	}
	// A larger chunk can never lead to the minimum: chunks are prefix-free,
	// so the first differing byte decides. Equal chunks are each tried.
	for _, c := range cands[minAt:] {
		if !bytes.Equal(chunks[c.start:c.end], least) {
			continue
		}
		e.place(c.node, depth)
		gen := e.gen
		e.rec(depth+1, tied)
		if e.gen != gen {
			tied = true // the new best extends this prefix
		}
		e.unplace(c.node)
	}
	e.buf = e.buf[:start]
}

// appendChunk appends node v's chunk at position at: its signature, then
// its edges to placed nodes (and its self loops) in sorted order.
func (e *canonEnum) appendChunk(b []byte, v, at int) []byte {
	b = append(b, e.sig[v]...)
	keys := e.edges[:0]
	for _, ed := range e.inc[v] {
		p := at
		if ed.other != v {
			if p = e.pos[ed.other]; p < 0 {
				continue
			}
		}
		k := canonKey{pos: p, out: ed.out, label: ed.label}
		i := len(keys)
		keys = append(keys, k)
		for ; i > 0 && keyLess(k, keys[i-1]); i-- {
			keys[i] = keys[i-1]
		}
		keys[i] = k
	}
	e.edges = keys
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		dir := byte(0)
		if k.out {
			dir = 1
		}
		b = append(b, byte(k.pos), dir)
		b = appendString(b, k.label)
	}
	return b
}

func keyLess(a, b canonKey) bool {
	if a.pos != b.pos {
		return a.pos < b.pos
	}
	if a.out != b.out {
		return !a.out
	}
	return a.label < b.label
}

// appendNodeSig encodes a node's label and its literals in sorted order.
func appendNodeSig(b []byte, n Node) []byte {
	b = appendString(b, n.Label)
	b = binary.AppendUvarint(b, uint64(len(n.Literals)))
	if len(n.Literals) == 0 {
		return b
	}
	lits := n.Literals
	if !slices.IsSortedFunc(lits, compareLiterals) {
		lits = slices.Clone(lits)
		slices.SortFunc(lits, compareLiterals)
	}
	for _, l := range lits {
		b = appendString(b, l.Key)
		b = appendString(b, l.Val)
	}
	return b
}

func compareLiterals(a, b Literal) int {
	return cmp.Or(strings.Compare(a.Key, b.Key), strings.Compare(a.Val, b.Val))
}

// appendString appends s with a uvarint length prefix.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// nodeSig renders one node's label and sorted literals.
func nodeSig(n Node) string {
	if len(n.Literals) == 0 {
		return n.Label
	}
	lits := append([]Literal(nil), n.Literals...)
	sortLiterals(lits)
	parts := make([]string, len(lits))
	for i, l := range lits {
		parts[i] = l.Key + "=" + l.Val
	}
	return n.Label + "{" + strings.Join(parts, ",") + "}"
}

// looseSignature is an order-insensitive fallback for large patterns: sorted
// node signatures with degrees, plus sorted edge label/endpoint-signature
// triples. Isomorphic patterns always get equal signatures; unequal patterns
// may collide only in ways the miner tolerates (it re-checks coverage).
func looseSignature(p *Pattern) string {
	nodeSigs := make([]string, len(p.Nodes))
	inDeg := make([]int, len(p.Nodes))
	outDeg := make([]int, len(p.Nodes))
	for _, e := range p.Edges {
		outDeg[e.From]++
		inDeg[e.To]++
	}
	for i, n := range p.Nodes {
		focus := 0
		if i == p.Focus {
			focus = 1
		}
		nodeSigs[i] = fmt.Sprintf("%s/%d/%d/%d", nodeSig(n), inDeg[i], outDeg[i], focus)
	}
	edgeSigs := make([]string, len(p.Edges))
	for i, e := range p.Edges {
		edgeSigs[i] = nodeSigs[e.From] + ">" + e.Label + ">" + nodeSigs[e.To]
	}
	sorted := append([]string(nil), nodeSigs...)
	sort.Strings(sorted)
	sort.Strings(edgeSigs)
	return "L:" + strings.Join(sorted, ";") + "#" + strings.Join(edgeSigs, "|")
}
