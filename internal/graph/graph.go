// Package graph implements the attributed, directed, labeled graph model of
// Section II of the paper: G = (V, E, L, T), where every node and edge
// carries a label and every node carries a tuple of attribute/value pairs.
//
// The store is optimized for the access paths the FGS algorithms need:
//
//   - label-indexed node scans (candidate generation for pattern focus nodes),
//   - in/out adjacency scans (backtracking subgraph isomorphism),
//   - undirected r-hop neighborhood expansion (N_v^r and E_v^r of Section II),
//   - incremental edge insertion (the dynamic setting of Section VII).
//
// Strings (labels, attribute keys, attribute values) are interned once so the
// hot paths compare int32 identifiers only.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// NodeID identifies a node. IDs are dense, assigned in insertion order
// starting at 0.
type NodeID int32

// EdgeID identifies one directed labeled edge. IDs are dense, assigned at
// insertion starting at 0, and stable for the lifetime of the edge; the ID of
// a removed edge may be reused by a later insertion (free-list remap, see
// RemoveEdge). EdgeIDs index the EdgeBits bitsets of the hot paths.
type EdgeID int32

// NoEdge is returned for edges that do not exist.
const NoEdge EdgeID = -1

// LabelID is an interned node or edge label.
type LabelID int32

// NoLabel is returned for labels of nodes that do not exist.
const NoLabel LabelID = -1

// Attr is one attribute/value pair of a node tuple, with both the key and the
// value interned. Attribute slices are kept sorted by Key.
type Attr struct {
	Key int32
	Val int32
}

// Edge is one directed adjacency entry: an edge to (or from) a neighbor with
// an interned edge label and the edge's dense ID, so traversals can mark
// EdgeBits without a lookup.
type Edge struct {
	To    NodeID
	Label LabelID
	ID    EdgeID
}

// Graph is an in-memory attributed directed multigraph. The zero value is not
// usable; construct with New.
type Graph struct {
	nodeLabels *Interner // node label universe
	edgeLabels *Interner // edge label universe
	attrKeys   *Interner // attribute key universe
	attrVals   *Interner // attribute value universe

	labelOf []LabelID // node -> label
	attrsOf [][]Attr  // node -> sorted attribute tuple

	out [][]Edge // node -> outgoing edges
	in  [][]Edge // node -> incoming edges (Edge.To holds the source)

	byLabel map[LabelID][]NodeID // label -> nodes carrying it

	// Dense edge identity. edgeDefs maps EdgeID -> EdgeRef (freed slots hold
	// a sentinel), edgeIndex is the O(1) duplicate/HasEdge probe, freeIDs is
	// the LIFO free list RemoveEdge feeds and AddEdge drains so the ID space
	// stays dense under churn.
	edgeDefs  []EdgeRef
	edgeIndex map[EdgeRef]EdgeID
	freeIDs   []EdgeID

	numEdges int

	// labelBitsMu guards labelBits, the lazily built per-label NodeBits the
	// matcher uses to prefilter candidates. Entries are immutable once built
	// (a rebuild after AddNode installs a fresh bitset), so readers may hold
	// them outside the lock.
	labelBitsMu sync.Mutex
	labelBits   map[LabelID]*labelBitsEntry

	// scratch pools epoch-stamped BFS visit marks (see bfs.go). Pooling is
	// per graph so the marks are sized to this graph's node space; sync.Pool
	// makes the r-hop operators safe under the -fgs.workers parallelism.
	scratch sync.Pool
}

type labelBitsEntry struct {
	bits *NodeBits
	n    int // NumNodes when built; stale when the graph has grown
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodeLabels: NewInterner(),
		edgeLabels: NewInterner(),
		attrKeys:   NewInterner(),
		attrVals:   NewInterner(),
		byLabel:    make(map[LabelID][]NodeID),
		edgeIndex:  make(map[EdgeRef]EdgeID),
	}
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.labelOf) }

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// AddNode inserts a node with the given label and attribute tuple and returns
// its ID. The attrs map may be nil.
func (g *Graph) AddNode(label string, attrs map[string]string) NodeID {
	id := NodeID(len(g.labelOf))
	lid := LabelID(g.nodeLabels.Intern(label))
	g.labelOf = append(g.labelOf, lid)

	var tuple []Attr
	if len(attrs) > 0 {
		tuple = g.internAttrs(attrs)
	}
	g.attrsOf = append(g.attrsOf, tuple)

	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.byLabel[lid] = append(g.byLabel[lid], id)
	return id
}

// internAttrs resolves an attribute map to a tuple sorted by key ID. New
// keys and values are interned in sorted key order, so the IDs a graph
// build assigns, and with them the order of every tuple, do not follow map
// iteration order. When every string is interned already, as for all but
// the first few nodes of a generated graph, the key names need no sort.
func (g *Graph) internAttrs(attrs map[string]string) []Attr {
	tuple := make([]Attr, 0, len(attrs))
	fresh := false
	for k, v := range attrs {
		kid, kok := g.attrKeys.Lookup(k)
		vid, vok := g.attrVals.Lookup(v)
		if !kok || !vok {
			fresh = true
			break
		}
		tuple = append(tuple, Attr{Key: kid, Val: vid})
	}
	if fresh {
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		tuple = tuple[:0]
		for _, k := range keys {
			tuple = append(tuple, Attr{Key: g.attrKeys.Intern(k), Val: g.attrVals.Intern(attrs[k])})
		}
	}
	sort.Slice(tuple, func(i, j int) bool { return tuple[i].Key < tuple[j].Key })
	return tuple
}

// AddEdge inserts a directed labeled edge from -> to. Parallel edges with the
// same label are rejected; parallel edges with distinct labels are allowed.
// Duplicate detection is an O(1) probe on the edge index (not an adjacency
// scan), so bulk loads stay linear even on high-degree nodes.
func (g *Graph) AddEdge(from, to NodeID, label string) error {
	if !g.HasNode(from) || !g.HasNode(to) {
		return fmt.Errorf("graph: edge (%d,%d) references missing node", from, to)
	}
	lid := LabelID(g.edgeLabels.Intern(label))
	ref := EdgeRef{From: from, To: to, Label: lid}
	if _, dup := g.edgeIndex[ref]; dup {
		return fmt.Errorf("graph: duplicate edge (%d,%d,%q)", from, to, label)
	}
	var id EdgeID
	if n := len(g.freeIDs); n > 0 {
		id = g.freeIDs[n-1]
		g.freeIDs = g.freeIDs[:n-1]
		g.edgeDefs[id] = ref
	} else {
		id = EdgeID(len(g.edgeDefs))
		g.edgeDefs = append(g.edgeDefs, ref)
	}
	g.edgeIndex[ref] = id
	g.out[from] = append(g.out[from], Edge{To: to, Label: lid, ID: id})
	g.in[to] = append(g.in[to], Edge{To: from, Label: lid, ID: id})
	g.numEdges++
	return nil
}

// HasNode reports whether id is a valid node.
func (g *Graph) HasNode(id NodeID) bool { return id >= 0 && int(id) < len(g.labelOf) }

// HasEdge reports whether a directed edge from -> to with the given
// interned edge label exists. Short adjacency lists are scanned directly
// (cheaper than hashing the 12-byte key on sparse graphs); high-degree
// sources fall through to the O(1) edge-index probe, so the worst case
// stays constant.
func (g *Graph) HasEdge(from, to NodeID, label LabelID) bool {
	if from < 0 || int(from) >= len(g.out) {
		return false
	}
	if out := g.out[from]; len(out) <= 8 {
		for _, e := range out {
			if e.To == to && e.Label == label {
				return true
			}
		}
		return false
	}
	_, ok := g.edgeIndex[EdgeRef{From: from, To: to, Label: label}]
	return ok
}

// EdgeIDBetween resolves the directed edge from -> to with the given
// interned label to its dense ID — HasEdge's probe (short adjacency lists
// scanned directly, high-degree nodes through the edge index) with the ID
// handed back instead of a bare bool. Both endpoints' lists are tried: a
// hub's fan-out is often reached from a low-degree node whose in-list is
// scannable even when the hub's out-list is not.
func (g *Graph) EdgeIDBetween(from, to NodeID, label LabelID) (EdgeID, bool) {
	if from < 0 || int(from) >= len(g.out) {
		return NoEdge, false
	}
	if out := g.out[from]; len(out) <= 8 {
		for _, e := range out {
			if e.To == to && e.Label == label {
				return e.ID, true
			}
		}
		return NoEdge, false
	}
	if to >= 0 && int(to) < len(g.in) {
		if in := g.in[to]; len(in) <= 8 {
			for _, e := range in {
				if e.To == from && e.Label == label {
					return e.ID, true
				}
			}
			return NoEdge, false
		}
	}
	id, ok := g.edgeIndex[EdgeRef{From: from, To: to, Label: label}]
	if !ok {
		return NoEdge, false
	}
	return id, true
}

// EdgeIDOf resolves an edge to its dense ID, or (NoEdge, false) when the edge
// does not exist.
func (g *Graph) EdgeIDOf(ref EdgeRef) (EdgeID, bool) {
	id, ok := g.edgeIndex[ref]
	if !ok {
		return NoEdge, false
	}
	return id, true
}

// EdgeRefOf returns the (From, To, Label) triple of a live edge ID. The
// result for a freed (removed and not yet reused) ID is the sentinel
// EdgeRef{-1, -1, -1}.
func (g *Graph) EdgeRefOf(id EdgeID) EdgeRef {
	if id < 0 || int(id) >= len(g.edgeDefs) {
		return EdgeRef{From: -1, To: -1, Label: -1}
	}
	return g.edgeDefs[id]
}

// EdgeIDBound reports the exclusive upper bound of the live EdgeID space —
// the capacity to size EdgeBits with.
func (g *Graph) EdgeIDBound() int { return len(g.edgeDefs) }

// EdgeSetOf materializes an EdgeBits as the equivalent EdgeSet — the adapter
// the summary boundary uses so the public API keeps its map-based types.
func (g *Graph) EdgeSetOf(bits *EdgeBits) EdgeSet {
	out := NewEdgeSet(bits.Count())
	bits.Iterate(func(id EdgeID) { out.Add(g.edgeDefs[id]) })
	return out
}

// EdgeSetOfIDs materializes a list of edge IDs (a P_E list or an EdgeAcc's
// IDs) as the equivalent EdgeSet.
func (g *Graph) EdgeSetOfIDs(ids []EdgeID) EdgeSet {
	out := NewEdgeSet(len(ids))
	for _, id := range ids {
		out.Add(g.edgeDefs[id])
	}
	return out
}

// EdgeBitsOf converts an EdgeSet to the bitset representation. Edges absent
// from the graph (stale refs) are dropped.
func (g *Graph) EdgeBitsOf(es EdgeSet) *EdgeBits {
	out := NewEdgeBits(len(g.edgeDefs))
	for ref := range es {
		if id, ok := g.edgeIndex[ref]; ok {
			out.Add(id)
		}
	}
	return out
}

// LabelBits returns the set of nodes carrying the given label as a bitset,
// built lazily and cached. The returned bitset is immutable and reflects the
// graph at call time: after AddNode the next call rebuilds. Safe for
// concurrent use (SumGen's scoring workers and concurrent requests call it).
func (g *Graph) LabelBits(lid LabelID) *NodeBits {
	n := g.NumNodes()
	g.labelBitsMu.Lock()
	defer g.labelBitsMu.Unlock()
	if e, ok := g.labelBits[lid]; ok && e.n == n {
		return e.bits
	}
	bits := NodeBitsOf(g.byLabel[lid])
	if g.labelBits == nil {
		g.labelBits = make(map[LabelID]*labelBitsEntry)
	}
	g.labelBits[lid] = &labelBitsEntry{bits: bits, n: n}
	return bits
}

// LabelIDOf returns the interned label of a node, or NoLabel if the node does
// not exist.
func (g *Graph) LabelIDOf(id NodeID) LabelID {
	if !g.HasNode(id) {
		return NoLabel
	}
	return g.labelOf[id]
}

// LabelOf returns the string label of a node.
func (g *Graph) LabelOf(id NodeID) string {
	lid := g.LabelIDOf(id)
	if lid == NoLabel {
		return ""
	}
	return g.nodeLabels.Name(int32(lid))
}

// NodeLabelID resolves a node label string to its interned ID without
// creating it; ok is false if the label has never been seen.
func (g *Graph) NodeLabelID(label string) (LabelID, bool) {
	id, ok := g.nodeLabels.Lookup(label)
	return LabelID(id), ok
}

// EdgeLabelID resolves an edge label string to its interned ID without
// creating it.
func (g *Graph) EdgeLabelID(label string) (LabelID, bool) {
	id, ok := g.edgeLabels.Lookup(label)
	return LabelID(id), ok
}

// EdgeLabelName returns the string form of an interned edge label.
func (g *Graph) EdgeLabelName(id LabelID) string { return g.edgeLabels.Name(int32(id)) }

// AttrKeyID resolves an attribute key without creating it.
func (g *Graph) AttrKeyID(key string) (int32, bool) { return g.attrKeys.Lookup(key) }

// AttrValID resolves an attribute value without creating it.
func (g *Graph) AttrValID(val string) (int32, bool) { return g.attrVals.Lookup(val) }

// AttrKeyName returns the string form of an interned attribute key.
func (g *Graph) AttrKeyName(id int32) string { return g.attrKeys.Name(id) }

// AttrValName returns the string form of an interned attribute value.
func (g *Graph) AttrValName(id int32) string { return g.attrVals.Name(id) }

// Attrs returns the node's attribute tuple, sorted by key ID. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) Attrs(id NodeID) []Attr {
	if !g.HasNode(id) {
		return nil
	}
	return g.attrsOf[id]
}

// AttrValue returns the value a node carries for an interned attribute key.
func (g *Graph) AttrValue(id NodeID, key int32) (int32, bool) {
	if !g.HasNode(id) {
		return 0, false
	}
	tuple := g.attrsOf[id]
	i := sort.Search(len(tuple), func(i int) bool { return tuple[i].Key >= key })
	if i < len(tuple) && tuple[i].Key == key {
		return tuple[i].Val, true
	}
	return 0, false
}

// AttrString returns the string value a node carries for an attribute key.
func (g *Graph) AttrString(id NodeID, key string) (string, bool) {
	kid, ok := g.attrKeys.Lookup(key)
	if !ok {
		return "", false
	}
	vid, ok := g.AttrValue(id, kid)
	if !ok {
		return "", false
	}
	return g.attrVals.Name(vid), true
}

// HasLiteral reports whether node id satisfies the equality literal
// key = val (both interned).
func (g *Graph) HasLiteral(id NodeID, key, val int32) bool {
	v, ok := g.AttrValue(id, key)
	return ok && v == val
}

// Out returns the outgoing edges of a node. The slice is owned by the graph.
func (g *Graph) Out(id NodeID) []Edge {
	if !g.HasNode(id) {
		return nil
	}
	return g.out[id]
}

// In returns the incoming edges of a node; Edge.To holds the source node.
// The slice is owned by the graph.
func (g *Graph) In(id NodeID) []Edge {
	if !g.HasNode(id) {
		return nil
	}
	return g.in[id]
}

// Degree reports the total (in + out) degree of a node.
func (g *Graph) Degree(id NodeID) int {
	if !g.HasNode(id) {
		return 0
	}
	return len(g.out[id]) + len(g.in[id])
}

// NodesWithLabel returns the nodes carrying the given label string. The slice
// is owned by the graph.
func (g *Graph) NodesWithLabel(label string) []NodeID {
	lid, ok := g.nodeLabels.Lookup(label)
	if !ok {
		return nil
	}
	return g.byLabel[LabelID(lid)]
}

// NodesWithLabelID returns the nodes carrying the given interned label.
func (g *Graph) NodesWithLabelID(lid LabelID) []NodeID { return g.byLabel[lid] }

// UniverseSizes reports the sizes of the four interner universes (node
// labels, edge labels, attribute keys, attribute values). The matcher stamps
// compiled patterns with this value: a pattern compiled as unmatchable
// because some string was unknown must be recompiled once the universes grow
// (AddNode/AddEdge interning new strings in the dynamic setting).
func (g *Graph) UniverseSizes() [4]int32 {
	return [4]int32{
		int32(g.nodeLabels.Len()),
		int32(g.edgeLabels.Len()),
		int32(g.attrKeys.Len()),
		int32(g.attrVals.Len()),
	}
}
