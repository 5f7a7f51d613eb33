package mining

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"github.com/cwru-db/fgs/internal/gen"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/pattern"
)

// The SumGen golden digests pin SumGen's full output on power-law fixtures
// whose anchors reach hubs: every candidate's pattern text, fallback flag,
// Covered, P_E edge IDs and C_P, in output order. They were recorded at
// commit 641d8a2, before the matcher took closing-edge candidates from the
// short side and before canonical codes were encoded incrementally. A
// speed-up must leave them as they are; a digest change means SumGen's
// output changed.
var sumGenGolden = []struct {
	name     string
	build    func() (*graph.Graph, []graph.NodeID)
	embedCap int // Config.EmbedCap; 0 is the default cap
	count    int
	digest   string
}{
	{"lki", goldenLKI, 0, 285, "c4b7ae5dd97fb655737206b61bda68f1ae18aef6fe22b6d0c88cc87ca02b69ba"},
	{"dbp", goldenDBP, 0, 295, "28a0dfbfb330c6265df6e4133a98e58565370178b8cb3ab7d564904fd65d3764"},
	// A cap that binds at most anchors: P_E then depends on which
	// embeddings come first, so this pins the enumeration order too.
	{"lki/embedcap=3", goldenLKI, 3, 285, "4865341b0d2fa853eecd792a7faf355ee278dc7e06cba727228730376e47f2a5"},
	{"lki20k", goldenLKI20k, 0, 208, "366a20e5ad572ddd73ec313ecc525792205b57aa8ecba8446b2ca7eacd9d78b8"},
}

// goldenLKI is the LKI generator's co-review network (preferential
// attachment, so a few users collect most in-edges) with the users of two
// cities as anchors, as in fgsd's demo groups.
func goldenLKI() (*graph.Graph, []graph.NodeID) {
	g := gen.LKI(7, 1)
	return g, nodesWith(g, "user", "city", "c0", "c1")
}

// goldenLKI20k is BenchmarkSumGenHub's input: eight anchors in a
// 20,000-node LKI network whose hubs have thousands of in-edges.
func goldenLKI20k() (*graph.Graph, []graph.NodeID) {
	g := gen.LKISized(1, 20000)
	return g, nodesWith(g, "user", "city", "c0", "c1")[:8]
}

// goldenDBP is the DBP generator's movie graph (degree-biased "similar"
// links) with the Romance movies as anchors.
func goldenDBP() (*graph.Graph, []graph.NodeID) {
	g := gen.DBP(7, 1)
	return g, nodesWith(g, "movie", "genre", "Romance")
}

// nodesWith lists, in ID order, the nodes with the label whose key attribute
// takes one of vals.
func nodesWith(g *graph.Graph, label, key string, vals ...string) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range g.NodesWithLabel(label) {
		got, _ := g.AttrString(v, key)
		for _, want := range vals {
			if got == want {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// sortedText is p's text form with each node's literals sorted. A
// generator hands AddNode its attributes as a map, so attribute key IDs, and
// with them the literal order of the full-literal fallback patterns, follow
// map iteration order and differ from one process to the next.
func sortedText(p *pattern.Pattern) string {
	q := p.Clone()
	for i := range q.Nodes {
		slices.SortFunc(q.Nodes[i].Literals, func(a, b pattern.Literal) int {
			return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Val, b.Val))
		})
	}
	return q.String()
}

// sumGenDigest hashes a SumGen output in order.
func sumGenDigest(cands []*Candidate) string {
	h := sha256.New()
	var buf []byte
	for _, c := range cands {
		buf = buf[:0]
		buf = append(buf, sortedText(c.P)...)
		buf = append(buf, 0)
		if c.Fallback {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(c.Covered)))
		for _, v := range c.Covered {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
		buf = binary.AppendUvarint(buf, uint64(len(c.CoveredEdges)))
		for _, id := range c.CoveredEdges {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
		buf = binary.AppendUvarint(buf, uint64(c.CP))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSumGenGolden(t *testing.T) {
	for _, fx := range sumGenGolden {
		g, anchors := fx.build()
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", fx.name, workers), func(t *testing.T) {
				cfg := Config{Radius: 2, EmbedCap: fx.embedCap, Workers: workers}
				cands := SumGen(g, anchors, anchors, cfg, NewErCache(g, 2))
				got := sumGenDigest(cands)
				if len(cands) != fx.count || got != fx.digest {
					t.Fatalf("%d anchors: %d candidates, digest %s; pinned %d, %s", len(anchors), len(cands), got, fx.count, fx.digest)
				}
			})
		}
	}
}
