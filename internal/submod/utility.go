package submod

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/cwru-db/fgs/internal/graph"
)

// Utility is a stateful monotone submodular set function F over nodes. The
// interface is marginal-gain oriented: implementations track the current set
// and answer "what would adding v gain" in O(small).
//
// Monotonicity and submodularity are contracts on implementations; the
// property tests in utility_test.go check them for the built-ins.
type Utility interface {
	// Marginal returns F(S ∪ {v}) − F(S) for the current set S. Calling it
	// for a v already in S must return 0.
	Marginal(v graph.NodeID) float64
	// Add commits v to the current set.
	Add(v graph.NodeID)
	// Remove evicts v from the current set (used by swap-based streaming).
	Remove(v graph.NodeID)
	// Value returns F(S).
	Value() float64
	// Reset empties the current set.
	Reset()
	// Clone returns an independent utility with an empty current set, for
	// side-effect-free evaluations while this one holds live state.
	Clone() Utility
}

// Eval computes F over an explicit node set using a fresh pass; it resets the
// utility's state. Useful in tests and verification (rverify).
func Eval(u Utility, nodes []graph.NodeID) float64 {
	u.Reset()
	for _, v := range nodes {
		u.Add(v)
	}
	val := u.Value()
	u.Reset()
	return val
}

// RatingSum is the modular utility of the paper's movie-recommendation
// setting: F(S) = Σ_{v∈S} rating(v), with ratings read from a node attribute.
type RatingSum struct {
	rating map[graph.NodeID]float64
	cur    graph.NodeSet
	val    float64
}

// NewRatingSum builds a RatingSum over nodes' attrKey values parsed as
// floats. Nodes without the attribute (or with unparsable values) rate 0.
func NewRatingSum(g *graph.Graph, attrKey string) *RatingSum {
	r := &RatingSum{rating: make(map[graph.NodeID]float64), cur: graph.NewNodeSet(0)}
	kid, ok := g.AttrKeyID(attrKey)
	if !ok {
		return r
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if vid, ok := g.AttrValue(v, kid); ok {
			if f, err := strconv.ParseFloat(g.AttrValName(vid), 64); err == nil {
				r.rating[v] = f
			}
		}
	}
	return r
}

// Marginal implements Utility.
func (r *RatingSum) Marginal(v graph.NodeID) float64 {
	if r.cur.Has(v) {
		return 0
	}
	return r.rating[v]
}

// Add implements Utility.
func (r *RatingSum) Add(v graph.NodeID) {
	if r.cur.Has(v) {
		return
	}
	r.cur.Add(v)
	r.val += r.rating[v]
}

// Remove implements Utility.
func (r *RatingSum) Remove(v graph.NodeID) {
	if !r.cur.Has(v) {
		return
	}
	r.cur.Remove(v)
	r.val -= r.rating[v]
}

// Value implements Utility.
func (r *RatingSum) Value() float64 { return r.val }

// Reset implements Utility.
func (r *RatingSum) Reset() {
	r.cur = graph.NewNodeSet(0)
	r.val = 0
}

// Clone implements Utility; the rating table is shared (read-only).
func (r *RatingSum) Clone() Utility {
	return &RatingSum{rating: r.rating, cur: graph.NewNodeSet(0)}
}

// NeighborMode selects which neighbors NeighborCoverage counts.
type NeighborMode int

// Neighbor directions. The paper's talent-search utility uses in-neighbors:
// N(v) = {u : (u,v) ∈ E}.
const (
	NeighborsIn NeighborMode = iota
	NeighborsOut
	NeighborsBoth
)

// NeighborCoverage is the influence-style submodular utility of the paper's
// talent-search and citation settings: F(S) = |∪_{v∈S} N(v)|. Coverage is
// reference counted so Remove is O(deg). Node IDs are dense, so the current
// set is a bitset, the reference counts live in a flat slice indexed by
// NodeID, and per-call neighbor dedup uses an epoch-stamped scratch — the
// selection loop's inner operations never touch a hash map.
type NeighborCoverage struct {
	g         *graph.Graph
	mode      NeighborMode
	edgeLabel graph.LabelID // restrict to this edge label; -1 = any
	cur       *graph.NodeBits
	refs      []int32 // node -> covering members of cur; grown on demand
	value     int     // count of nodes with refs > 0 (= F(S))
	stamp     []uint32
	epoch     uint32
}

// NewNeighborCoverage builds the utility over g. If edgeLabel is non-empty,
// only edges with that label contribute neighbors (e.g. "co-review" in LKI,
// "cite" in Cite); an unknown label yields a constant-zero utility.
func NewNeighborCoverage(g *graph.Graph, mode NeighborMode, edgeLabel string) *NeighborCoverage {
	nc := &NeighborCoverage{g: g, mode: mode, edgeLabel: -1, cur: graph.NewNodeBits(g.NumNodes())}
	if edgeLabel != "" {
		if lid, ok := g.EdgeLabelID(edgeLabel); ok {
			nc.edgeLabel = lid
		} else {
			nc.edgeLabel = -2 // sentinel: label never occurs, coverage always empty
		}
	}
	return nc
}

// neighbors iterates N(v) under the configured mode and label filter.
func (nc *NeighborCoverage) neighbors(v graph.NodeID, fn func(graph.NodeID)) {
	if nc.edgeLabel == -2 {
		return
	}
	if nc.mode == NeighborsIn || nc.mode == NeighborsBoth {
		for _, e := range nc.g.In(v) {
			if nc.edgeLabel < 0 || e.Label == nc.edgeLabel {
				fn(e.To)
			}
		}
	}
	if nc.mode == NeighborsOut || nc.mode == NeighborsBoth {
		for _, e := range nc.g.Out(v) {
			if nc.edgeLabel < 0 || e.Label == nc.edgeLabel {
				fn(e.To)
			}
		}
	}
}

// fresh sizes refs and stamp to the graph's node space and starts a new
// dedup epoch (stamp[u] == epoch marks u as seen in the current call).
func (nc *NeighborCoverage) fresh() {
	if n := nc.g.NumNodes(); len(nc.refs) < n {
		refs := make([]int32, n)
		copy(refs, nc.refs)
		nc.refs = refs
		stamp := make([]uint32, n)
		copy(stamp, nc.stamp)
		nc.stamp = stamp
	}
	nc.epoch++
	if nc.epoch == 0 {
		clear(nc.stamp)
		nc.epoch = 1
	}
}

// Marginal implements Utility.
func (nc *NeighborCoverage) Marginal(v graph.NodeID) float64 {
	if nc.cur.Has(v) {
		return 0
	}
	nc.fresh()
	gain := 0
	nc.neighbors(v, func(u graph.NodeID) {
		if nc.stamp[u] != nc.epoch && nc.refs[u] == 0 {
			gain++
		}
		nc.stamp[u] = nc.epoch
	})
	return float64(gain)
}

// Add implements Utility.
func (nc *NeighborCoverage) Add(v graph.NodeID) {
	if nc.cur.Has(v) {
		return
	}
	nc.cur.Add(v)
	nc.fresh()
	nc.neighbors(v, func(u graph.NodeID) {
		if nc.stamp[u] != nc.epoch {
			if nc.refs[u]++; nc.refs[u] == 1 {
				nc.value++
			}
		}
		nc.stamp[u] = nc.epoch
	})
}

// Remove implements Utility.
func (nc *NeighborCoverage) Remove(v graph.NodeID) {
	if !nc.cur.Has(v) {
		return
	}
	nc.cur.Remove(v)
	nc.fresh()
	nc.neighbors(v, func(u graph.NodeID) {
		if nc.stamp[u] != nc.epoch {
			if nc.refs[u]--; nc.refs[u] == 0 {
				nc.value--
			}
		}
		nc.stamp[u] = nc.epoch
	})
}

// Value implements Utility.
func (nc *NeighborCoverage) Value() float64 { return float64(nc.value) }

// Reset implements Utility.
func (nc *NeighborCoverage) Reset() {
	nc.cur = graph.NewNodeBits(nc.g.NumNodes())
	clear(nc.refs)
	nc.value = 0
}

// Clone implements Utility; the graph is shared (read-only access).
func (nc *NeighborCoverage) Clone() Utility {
	return &NeighborCoverage{g: nc.g, mode: nc.mode, edgeLabel: nc.edgeLabel, cur: graph.NewNodeBits(nc.g.NumNodes())}
}

// Cardinality is the trivial modular utility F(S) = |S|, used by the
// hardness reduction of Theorem 2 and convenient in tests.
type Cardinality struct {
	cur graph.NodeSet
}

// NewCardinality returns a cardinality utility.
func NewCardinality() *Cardinality { return &Cardinality{cur: graph.NewNodeSet(0)} }

// Marginal implements Utility.
func (c *Cardinality) Marginal(v graph.NodeID) float64 {
	if c.cur.Has(v) {
		return 0
	}
	return 1
}

// Add implements Utility.
func (c *Cardinality) Add(v graph.NodeID) { c.cur.Add(v) }

// Remove implements Utility.
func (c *Cardinality) Remove(v graph.NodeID) { c.cur.Remove(v) }

// Value implements Utility.
func (c *Cardinality) Value() float64 { return float64(c.cur.Len()) }

// Reset implements Utility.
func (c *Cardinality) Reset() { c.cur = graph.NewNodeSet(0) }

// Clone implements Utility.
func (c *Cardinality) Clone() Utility { return NewCardinality() }

// ParseUtility builds a utility over g from its spec, as fgs -utility and
// fgsd's config and requests name it: coverage[:edgelabel] (in-neighbor
// coverage, optionally counting one edge label; "" means coverage),
// rating[:attr] (attr defaults to "rating"), diversity:attr, or cardinality.
func ParseUtility(g *graph.Graph, spec string) (Utility, error) {
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "", "coverage":
		return NewNeighborCoverage(g, NeighborsIn, arg), nil
	case "rating":
		if arg == "" {
			arg = "rating"
		}
		return NewRatingSum(g, arg), nil
	case "diversity":
		if arg == "" {
			return nil, fmt.Errorf("utility %q needs an attribute: diversity:<attr>", spec)
		}
		return NewAttributeDiversity(g, arg), nil
	case "cardinality":
		return NewCardinality(), nil
	default:
		return nil, fmt.Errorf("unknown utility %q (have coverage[:edgelabel], rating[:attr], diversity:attr, cardinality)", spec)
	}
}
