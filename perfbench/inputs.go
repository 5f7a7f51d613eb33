package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	fgs "github.com/cwru-db/fgs"
	"github.com/cwru-db/fgs/datasets"
)

// Inputs. Graphs are fixed (generator seed 42, as fgsd's demo and the scale
// tier use); everything a run sends — request order, arrival times, write
// batches — derives from the workload seed, so one seed gives one input.

const (
	graphSeed  = 42
	scaleNodes = 200000
	// tailEdges edges with labels the LKI generator never emits are added to
	// the scale graph: a ≈0.2% rare-label tail with skewed selectivity.
	tailEdges = 1000
)

// tailLabels are the rare labels of the tail; LKI emits only "employed" and
// "corev".
var tailLabels = []string{"mentors", "endorses", "follows", "blocks"}

// scaleGraph builds the summarize and ingest input: LKISized(42, 200000)
// plus the rare-label tail between random users.
func scaleGraph() *fgs.Graph {
	g := datasets.LKISized(graphSeed, scaleNodes)
	addTail(g, rand.New(rand.NewSource(graphSeed)), tailEdges)
	return g
}

// addTail inserts n distinct user→user edges spread over the tail labels.
func addTail(g *fgs.Graph, rng *rand.Rand, n int) {
	users := g.NodesWithLabel("user")
	for added := 0; added < n; {
		u, v := users[rng.Intn(len(users))], users[rng.Intn(len(users))]
		if u == v {
			continue
		}
		if g.AddEdge(u, v, tailLabels[rng.Intn(len(tailLabels))]) == nil {
			added++
		}
	}
}

// demoGraph is fgsd's demo graph: LKI scale 1.
func demoGraph() *fgs.Graph { return datasets.LKI(graphSeed, 1) }

// groupSpec is fgsd's -groups syntax, label:attr:v1,v2:lower:upper.
type groupSpec struct {
	label, attr  string
	values       []string
	lower, upper int
}

var (
	// scaleGroups is the scale tier's default grouping.
	scaleGroups = groupSpec{"user", "city", []string{"c0", "c1"}, 1, 4}
	// demoGroups is fgsd's default -groups.
	demoGroups = groupSpec{"user", "gender", []string{"male", "female"}, 1, 10}
)

func (s groupSpec) build(g *fgs.Graph) (*fgs.Groups, error) {
	return datasets.GroupsByAttr(g, s.label, s.attr, s.values, s.lower, s.upper)
}

func (s groupSpec) String() string {
	return fmt.Sprintf("%s:%s:%s,%s:%d:%d", s.label, s.attr, s.values[0], s.values[1], s.lower, s.upper)
}

// --- summarize requests ----------------------------------------------------

// summarizeUtilities are the utility specs summarize requests rotate
// through. rating:exp is left out: at r=2 and n >= 5 it takes 8–11 s on the
// scale graph, with or without the rare-label tail, twenty times its other
// shapes, and one such request in a 20 s window decides the run's figures.
var summarizeUtilities = []string{"coverage", "coverage:corev", "cardinality", "diversity:degree", "diversity:industry"}

// summarizeShapes are the (r, n) pairs requests take. Their costs form one
// cluster per r, and r=2 comes twice as often as r=1, so both the median
// and the p75 tail fall inside the r=2 cluster. A wider n range (up to the
// groups' 8) spreads r=2 costs from 0.3 to 2.5 s, and at the twenty-odd
// samples a window holds, p75 then landed on either side of the gap
// between n=4 and n=8 from one run of the same seed to the next.
var summarizeShapes = []struct{ r, n int }{{1, 4}, {2, 3}, {2, 4}}

// summarizeRounds is how many rounds the summarize sequence holds: 3,000
// requests, which outlast a 32 s warm-up and window down to about 10 ms a
// request.
const summarizeRounds = 200

// summarizeRound is how many requests one round of the sequence sends: one
// per (r, n, utility) shape.
var summarizeRound = len(summarizeShapes) * len(summarizeUtilities)

// summarizeSeq is a seeded sequence of distinct summarize and summarize-k
// requests. A request's cost is set by its shape, an (r, n, utility) triple,
// and by k where k is below n. The sequence is a series of rounds: round j
// sends every shape once, as summarize-k with k = n + j, which costs what
// k = n does. Only the order within each round is seeded, so every run sends
// the same requests in the same rounds whatever its seed, while no request
// repeats and every one misses the result cache.
//
// Summarize has one distinct request per shape, so it cannot recur each
// round: the first len(shapes) rounds each send one shape as summarize
// instead (round j, shape j). A 32 s warm-up and window runs past them only
// below about 140 ms a request.
func summarizeSeq(seed int64) []*call {
	rng := rand.New(rand.NewSource(seed))
	type shape struct {
		r, n    int
		utility string
	}
	var shapes []shape
	for _, rn := range summarizeShapes {
		for _, u := range summarizeUtilities {
			shapes = append(shapes, shape{rn.r, rn.n, u})
		}
	}
	var out []*call
	for round := 0; round < summarizeRounds; round++ {
		for _, i := range rng.Perm(len(shapes)) {
			sh := shapes[i]
			if i == round {
				out = append(out, summarizeCall("summarize", sh.r, 0, sh.n, sh.utility))
			} else {
				out = append(out, summarizeCall("summarize-k", sh.r, sh.n+round, sh.n, sh.utility))
			}
		}
	}
	return out
}

// summarizeCall builds one summarize or summarize-k request.
func summarizeCall(endpoint string, r, k, n int, utility string) *call {
	body := map[string]any{"r": r, "n": n, "utility": utility}
	if k > 0 {
		body["k"] = k
	}
	return &call{
		class: endpoint, method: http.MethodPost, path: "/v1/" + endpoint,
		body: mustJSON(body), r: r, k: k, n: n, utility: utility,
	}
}

// --- writes -------------------------------------------------------------------

// edge is one edge of an update batch.
type edge struct {
	From, To int64
	Label    string
}

// batch is one /v1/update request: the edges it inserts and deletes.
type batch struct {
	insert, delete []edge
	// deletes is the earlier batch whose inserts this one deletes.
	deletes *batch
}

// size is how many edges the batch changes when it applies in full.
func (b *batch) size() int { return len(b.insert) + len(b.delete) }

func (b *batch) body() string {
	type change struct {
		From  int64  `json:"from"`
		To    int64  `json:"to"`
		Label string `json:"label"`
	}
	conv := func(es []edge) []change {
		out := make([]change, len(es))
		for i, e := range es {
			out[i] = change{e.From, e.To, e.Label}
		}
		return out
	}
	return mustJSON(struct {
		Insert []change `json:"insert,omitempty"`
		Delete []change `json:"delete,omitempty"`
	}{conv(b.insert), conv(b.delete)})
}

// writeGen produces update batches that always apply in full: inserts are
// user pairs that hold no edge in the graph and none in a batch still
// outstanding, and deletes remove the batch inserted lag batches earlier.
// The graph's size therefore stays flat, and no batch is a no-op against the
// benchmark's graph copy. It is not safe for concurrent use.
//
// Its memory stays flat too: the graph's pairs are one sorted slice, and only
// outstanding batches are kept, so a long window does not grow the harness's
// share of the heap.
type writeGen struct {
	base      []uint64 // sorted pairKeys of the user→user edges before any write
	users     []fgs.NodeID
	rng       *rand.Rand
	tailShare float64 // share of inserted edges carrying a tail label
	lag       int
	live      map[uint64]bool // pairKeys of outstanding inserts
	pending   []*batch        // inserted, not yet deleted; oldest first
}

func newWriteGen(g *fgs.Graph, seed int64, tailShare float64, lag int) *writeGen {
	return &writeGen{
		base: userPairs(g), users: append([]fgs.NodeID(nil), g.NodesWithLabel("user")...), rng: rand.New(rand.NewSource(seed)),
		tailShare: tailShare, lag: lag, live: make(map[uint64]bool),
	}
}

// pairKey packs an ordered node pair into one word.
func pairKey(u, v int64) uint64 { return uint64(u)<<32 | uint64(uint32(v)) }

// userPairs returns the sorted pairKeys of g's user→user edges, whatever
// their label: the only pairs writes could collide with. Keeping them lets
// write generation run while the engine owns and mutates its own graph,
// without a second graph copy alive in the timed window.
func userPairs(g *fgs.Graph) []uint64 {
	user, _ := g.NodeLabelID("user")
	var out []uint64
	for _, u := range g.NodesWithLabel("user") {
		for _, e := range g.Out(u) {
			if g.LabelIDOf(e.To) == user {
				out = append(out, pairKey(int64(u), int64(e.To)))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (w *writeGen) inBase(k uint64) bool {
	i := sort.Search(len(w.base), func(i int) bool { return w.base[i] >= k })
	return i < len(w.base) && w.base[i] == k
}

// fresh draws an edge between a user pair the graph holds no edge on and no
// outstanding batch inserted.
func (w *writeGen) fresh() edge {
	for {
		u, v := w.users[w.rng.Intn(len(w.users))], w.users[w.rng.Intn(len(w.users))]
		label := "corev"
		if w.rng.Float64() < w.tailShare {
			label = tailLabels[w.rng.Intn(len(tailLabels))]
		}
		k := pairKey(int64(u), int64(v))
		if u == v || w.live[k] || w.inBase(k) {
			continue
		}
		w.live[k] = true
		return edge{int64(u), int64(v), label}
	}
}

func (w *writeGen) setLive(es []edge, live bool) {
	for _, e := range es {
		if live {
			w.live[pairKey(e.From, e.To)] = true
		} else {
			delete(w.live, pairKey(e.From, e.To))
		}
	}
}

// slide returns a batch inserting n fresh edges and, once lag batches are
// outstanding, deleting the oldest of them. The inserts are drawn before the
// deleted pairs are released, so no batch inserts an edge it deletes.
func (w *writeGen) slide(n int) *batch {
	b := &batch{}
	for i := 0; i < n; i++ {
		b.insert = append(b.insert, w.fresh())
	}
	if len(w.pending) >= w.lag {
		b.deletes = w.pending[0]
		b.delete = b.deletes.insert
		w.pending = w.pending[1:]
		w.setLive(b.delete, false)
		// The deleted batch was answered long ago, so it will not be taken
		// back; dropping its own link keeps the batches from chaining.
		b.deletes.deletes = nil
	}
	w.pending = append(w.pending, b)
	return b
}

// refused takes back b, the last batch slide returned, after the engine
// refused it: its inserts never landed, so no later batch may delete them,
// and the batch it would have deleted is still in the graph.
func (w *writeGen) refused(b *batch) {
	w.pending = w.pending[:len(w.pending)-1]
	w.setLive(b.insert, false)
	if d := b.deletes; d != nil {
		w.pending = append([]*batch{d}, w.pending...)
		w.setLive(d.insert, true)
	}
}

// writer returns a closed-loop request source sending batches of n edges
// from w, for one client. Before it builds a batch it reads the status of
// the one it built last, which that client has sent by then, and takes a
// refused batch back, so a refusal never turns into a failed delete.
func writer(w *writeGen, n int) func() *call {
	var last *call
	var lastBatch *batch
	return func() *call {
		if last != nil && last.status != http.StatusOK {
			w.refused(lastBatch)
		}
		lastBatch = w.slide(n)
		last = updateCall(lastBatch)
		return last
	}
}

// updateCall wraps a batch as a /v1/update request.
func updateCall(b *batch) *call {
	return &call{class: "update", method: http.MethodPost, path: "/v1/update", body: b.body(), changes: b.size()}
}

// --- views and the open-loop schedule ------------------------------------------

// sharedViewPatterns are fgsbench's shared view patterns.
var sharedViewPatterns = []string{
	"n 0 user\nf 0",
	"n 0 user\nn 1 user\ne 1 0 corev\nf 0",
	"n 0 user\nn 1 org\ne 0 1 employed\nf 0",
}

func viewCall(pattern string) *call {
	return &call{class: "view", method: http.MethodPost, path: "/v1/view", body: mustJSON(map[string]string{"pattern": pattern})}
}

func statsCall() *call {
	return &call{class: "stats", method: http.MethodGet, path: "/v1/stats"}
}

// arrivals returns the arrival offsets of a Poisson process at rate per
// second over [0, span), conditioned on its expected count: that many
// instants drawn uniformly and sorted. Fixing the count keeps the offered
// load identical across seeds while the spacing stays Poisson.
func arrivals(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	n := int(rate*span.Seconds() + 0.5)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// deck deals request kinds in exact proportions: each round of the deck
// holds every kind its count of times, in a seeded order, so every run
// sends the same mix.
type deck struct {
	rng   *rand.Rand
	cards []string
	next  int
}

func newDeck(rng *rand.Rand, counts map[string]int) *deck {
	d := &deck{rng: rng}
	for _, kind := range sortedNames(counts) {
		for i := 0; i < counts[kind]; i++ {
			d.cards = append(d.cards, kind)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) deal() string {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// cityViewPatterns returns single-node city-literal patterns over distinct
// cities in a seeded order; the scale graph has about 740 cities, so
// consecutive views never share a cache key.
func cityViewPatterns(rng *rand.Rand, cities int) []string {
	out := make([]string, cities)
	for i, c := range rng.Perm(cities) {
		out[i] = "n 0 user city=c" + strconv.Itoa(c) + "\nf 0"
	}
	return out
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only called on benchmark-built values
	}
	return string(b)
}
