package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/mining"
	"github.com/cwru-db/fgs/internal/pattern"
	"github.com/cwru-db/fgs/internal/submod"
)

// Maintainer checkpoint/resume for fgstore snapshots (DESIGN.md §15). A
// snapshot is the FGSB graph plus a MaintainerState; recovery rebuilds a
// Maintainer whose every observable output — and every future Apply
// decision — is identical to the checkpointed one's. The graph alone is not
// enough: the streaming selector's swap rule compares against weights
// recorded at acceptance time, PostSelect draws from arrival-ordered
// buckets, and NeighborCoverage's refcounts depend on the graph as it was
// when each member was added. All of that history rides in the checkpoint.
//
// Caches (E_v^r, compiled matchers) and observability counters are rebuilt
// empty: they affect timing, never results.

// PatternState is one selected pattern in checkpoint form. The pattern
// itself travels as its canonical text (pattern.Format / ParseString round-
// trip); CoveredEdges as EdgeRef triples sorted by (From, To, Label). Label
// IDs are stable across a snapshot round-trip because FGSB preserves
// interner tables verbatim and labels are never deleted.
type PatternState struct {
	Pattern      string
	Covered      []graph.NodeID
	CoveredEdges []graph.EdgeRef
	CP           int
}

// MaintainerState is a Maintainer checkpoint.
type MaintainerState struct {
	Selector *submod.StreamerState
	Patterns []PatternState
	// Candidates and Windows restore the lifetime counters feeding
	// Stats/metrics, so exported totals survive a restart.
	Candidates int
	Windows    int
}

// Checkpoint captures the maintainer's full decision state. The caller must
// hold whatever lock serializes Apply; the maintainer is not touched beyond
// reads.
func (m *Maintainer) Checkpoint() (*MaintainerState, error) {
	sel, err := m.sel.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	st := &MaintainerState{
		Selector:   sel,
		Patterns:   make([]PatternState, len(m.patterns)),
		Candidates: m.candidates,
		Windows:    m.windows,
	}
	for i, pi := range m.patterns {
		var b strings.Builder
		if err := pattern.Format(&b, pi.P); err != nil {
			return nil, fmt.Errorf("core: checkpoint pattern %d: %w", i, err)
		}
		st.Patterns[i] = PatternState{
			Pattern:      b.String(),
			Covered:      append([]graph.NodeID(nil), pi.Covered...),
			CoveredEdges: sortedEdgeRefs(pi.CoveredEdges),
			CP:           pi.CP,
		}
	}
	return st, nil
}

// sortedEdgeRefs materializes an EdgeSet as a slice sorted by (From, To,
// Label), the canonical order every serialization of edge sets uses.
func sortedEdgeRefs(es graph.EdgeSet) []graph.EdgeRef {
	out := make([]graph.EdgeRef, 0, len(es))
	for e := range es {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Label < b.Label
	})
	return out
}

// ResumeMaintainer rebuilds a maintainer from a checkpoint against the
// recovered graph. g, groups, util, and cfg must be constructed exactly as
// they were for the checkpointed maintainer (same graph bytes, same specs);
// the returned summary is then byte-identical to the one the checkpointed
// maintainer would materialize.
func ResumeMaintainer(g *graph.Graph, groups *submod.Groups, util submod.Utility, cfg Config, st *MaintainerState) (*Maintainer, *Summary, error) {
	cfg = cfg.withDefaults()
	sel, err := submod.ResumeStreamer(groups, util, cfg.N, st.Selector)
	if err != nil {
		return nil, nil, fmt.Errorf("core: resume: %w", err)
	}
	run := startRun(cfg.Obs, "incfgs")
	m := &Maintainer{
		g:          g,
		groups:     groups,
		cfg:        cfg,
		er:         mining.NewErCache(g, cfg.R),
		sel:        sel,
		util:       util,
		matcher:    pattern.NewMatcher(g, cfg.Mining.EmbedCap),
		run:        run,
		candidates: st.Candidates,
		windows:    st.Windows,
	}
	run.register(m.er)
	run.register(m.sel)
	m.patterns = make([]PatternInfo, len(st.Patterns))
	for i, ps := range st.Patterns {
		p, err := pattern.ParseString(ps.Pattern)
		if err != nil {
			return nil, nil, fmt.Errorf("core: resume pattern %d: %w", i, err)
		}
		edges := graph.NewEdgeSet(len(ps.CoveredEdges))
		for _, e := range ps.CoveredEdges {
			edges.Add(e)
		}
		m.patterns[i] = PatternInfo{
			P:            p,
			Covered:      append([]graph.NodeID(nil), ps.Covered...),
			CoveredEdges: edges,
			CP:           ps.CP,
		}
	}
	return m, m.Summary(), nil
}

// --- binary codec --------------------------------------------------------
//
// The checkpoint section of a snapshot file. Framing follows the FGSB
// conventions: uvarints for counts and IDs, length-prefixed strings,
// float64s as fixed 8-byte little-endian bits (varint-encoding float bit
// patterns would bloat them). The section is self-delimiting so the
// snapshot codec can append a trailing checksum.

// WriteBinary serializes the checkpoint.
func (st *MaintainerState) WriteBinary(w io.Writer) error {
	var scratch [binary.MaxVarintLen64]byte
	var werr error
	putUv := func(v uint64) {
		if werr != nil {
			return
		}
		n := binary.PutUvarint(scratch[:], v)
		_, werr = w.Write(scratch[:n])
	}
	putF64 := func(f float64) {
		if werr != nil {
			return
		}
		binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(f))
		_, werr = w.Write(scratch[:8])
	}
	putStr := func(s string) {
		putUv(uint64(len(s)))
		if werr == nil {
			_, werr = io.WriteString(w, s)
		}
	}

	sel := st.Selector
	putUv(uint64(len(sel.Selected)))
	for i, v := range sel.Selected {
		putUv(uint64(v))
		putF64(sel.Weights[i])
	}
	putUv(uint64(len(sel.Buckets)))
	for _, b := range sel.Buckets {
		putUv(uint64(len(b)))
		for _, v := range b {
			putUv(uint64(v))
		}
	}
	putUv(uint64(len(sel.Utility)))
	if werr == nil && len(sel.Utility) > 0 {
		_, werr = w.Write(sel.Utility)
	}

	putUv(uint64(len(st.Patterns)))
	for _, ps := range st.Patterns {
		putStr(ps.Pattern)
		putUv(uint64(len(ps.Covered)))
		for _, v := range ps.Covered {
			putUv(uint64(v))
		}
		putUv(uint64(len(ps.CoveredEdges)))
		for _, e := range ps.CoveredEdges {
			putUv(uint64(e.From))
			putUv(uint64(e.To))
			putUv(uint64(e.Label))
		}
		putUv(uint64(ps.CP))
	}
	putUv(uint64(st.Candidates))
	putUv(uint64(st.Windows))
	return werr
}

// maxCheckpointElems bounds any single count read from a checkpoint before
// allocation, so a corrupt length cannot ask for gigabytes. Checksums catch
// corruption; this catches it before the allocator does.
const maxCheckpointElems = 1 << 28

// ReadMaintainerState deserializes a checkpoint written by WriteBinary. r
// must be buffered (io.ByteReader) — the snapshot codec's readers are.
func ReadMaintainerState(r io.Reader) (*MaintainerState, error) {
	br, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if !ok {
		return nil, fmt.Errorf("core: checkpoint reader must be buffered")
	}
	var rerr error
	getUv := func(what string) uint64 {
		if rerr != nil {
			return 0
		}
		v, err := binary.ReadUvarint(br)
		if err != nil {
			rerr = fmt.Errorf("core: read checkpoint %s: %w", what, err)
		}
		return v
	}
	getCount := func(what string) int {
		v := getUv(what)
		if rerr == nil && v > maxCheckpointElems {
			rerr = fmt.Errorf("core: read checkpoint %s: count %d exceeds limit", what, v)
		}
		return int(v)
	}
	getF64 := func(what string) float64 {
		if rerr != nil {
			return 0
		}
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			rerr = fmt.Errorf("core: read checkpoint %s: %w", what, err)
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	getStr := func(what string) string {
		n := getCount(what)
		if rerr != nil || n == 0 {
			return ""
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			rerr = fmt.Errorf("core: read checkpoint %s: %w", what, err)
			return ""
		}
		return string(buf)
	}

	st := &MaintainerState{Selector: &submod.StreamerState{}}
	sel := st.Selector
	nSel := getCount("selection size")
	for i := 0; i < nSel && rerr == nil; i++ {
		sel.Selected = append(sel.Selected, graph.NodeID(getUv("selected node")))
		sel.Weights = append(sel.Weights, getF64("weight"))
	}
	nBuckets := getCount("bucket count")
	for i := 0; i < nBuckets && rerr == nil; i++ {
		n := getCount("bucket size")
		// nil when empty, matching what Checkpoint emits, so a round-trip is
		// DeepEqual-identical.
		var b []graph.NodeID
		if n > 0 && rerr == nil {
			b = make([]graph.NodeID, 0, n)
		}
		for j := 0; j < n && rerr == nil; j++ {
			b = append(b, graph.NodeID(getUv("bucket node")))
		}
		sel.Buckets = append(sel.Buckets, b)
	}
	if n := getCount("utility state size"); rerr == nil && n > 0 {
		sel.Utility = make([]byte, n)
		if _, err := io.ReadFull(br, sel.Utility); err != nil {
			rerr = fmt.Errorf("core: read checkpoint utility state: %w", err)
		}
	}

	nPat := getCount("pattern count")
	for i := 0; i < nPat && rerr == nil; i++ {
		ps := PatternState{Pattern: getStr("pattern text")}
		nCov := getCount("covered size")
		for j := 0; j < nCov && rerr == nil; j++ {
			ps.Covered = append(ps.Covered, graph.NodeID(getUv("covered node")))
		}
		nEdges := getCount("covered-edge count")
		for j := 0; j < nEdges && rerr == nil; j++ {
			ps.CoveredEdges = append(ps.CoveredEdges, graph.EdgeRef{
				From:  graph.NodeID(getUv("edge from")),
				To:    graph.NodeID(getUv("edge to")),
				Label: graph.LabelID(getUv("edge label")),
			})
		}
		ps.CP = int(getUv("pattern loss"))
		st.Patterns = append(st.Patterns, ps)
	}
	st.Candidates = int(getUv("candidate counter"))
	st.Windows = int(getUv("window counter"))
	if rerr != nil {
		return nil, rerr
	}
	return st, nil
}
