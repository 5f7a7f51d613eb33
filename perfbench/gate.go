package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"

	fgs "github.com/cwru-db/fgs"
	"github.com/cwru-db/fgs/internal/core"
)

// The correctness gate runs after the timed window. It checks every
// response the window produced:
//
//   - a summarize or summarize-k response must come back at epoch 0 (the
//     workload that sends them never writes), parse with ReadSummaryJSON
//     against the benchmark's own copy of the graph, and pass Verify: budget
//     (≤ k patterns), size, group bounds, recorded coverage and lossless
//     reconstruction;
//   - an update must report applied equal to the edges the batch meant to
//     change;
//   - a status other than 200 counts as failed; 503 and 504 are the
//     engine's explicit refusals, anything else is also a wrong answer. The
//     writer takes a refused batch back (writeGen.refused), so a refusal
//     never turns into a wrong answer downstream;
//   - on ingest, the summary the engine maintains must pass Verify after the
//     run (checkMaintained).
//
// summary_cr comes from verified summaries only.

// gateReport is the gate's verdict over one run.
type gateReport struct {
	problems []string
	cr       map[*call]float64 // C_r of each verified summary
}

func (g *gateReport) fail(format string, args ...any) {
	if len(g.problems) < 20 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	} else if len(g.problems) == 20 {
		g.problems = append(g.problems, "further problems omitted")
	}
}

func (g *gateReport) ok() bool { return len(g.problems) == 0 }

// verified is how many summaries passed the gate.
func (g *gateReport) verified() int { return len(g.cr) }

// summaryCR is the mean C_r of those of calls whose summaries passed the
// gate (0 when none did).
func (g *gateReport) summaryCR(calls []*call) float64 {
	var crs []float64
	for _, c := range calls {
		if cr, ok := g.cr[c]; ok {
			crs = append(crs, cr)
		}
	}
	return mean(crs)
}

// failedStatus reports whether a completed call counts as failed, and
// whether its status is one the benchmark never intends (a wrong answer
// rather than a refusal).
func failedStatus(c *call) (failed, wrong bool) {
	switch {
	case c.censored:
		return false, false
	case c.status == http.StatusOK:
		return false, false
	case c.status == http.StatusServiceUnavailable || c.status == http.StatusGatewayTimeout:
		return true, false
	default:
		return true, true
	}
}

// checkStatuses applies the status rule and the update rule to every call.
func checkStatuses(calls []*call, rep *gateReport) {
	for _, c := range calls {
		if c.censored {
			continue
		}
		if _, wrong := failedStatus(c); wrong {
			rep.fail("%s: status %d: %s", c.describe(), c.status, truncate(c.resp))
			continue
		}
		if c.class != "update" || c.status != http.StatusOK {
			continue
		}
		var resp struct {
			Applied int    `json:"applied"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(c.resp, &resp); err != nil {
			rep.fail("update: bad response: %v", err)
			continue
		}
		if resp.Applied != c.changes || resp.Error != "" {
			rep.fail("update: applied %d of %d (%s)", resp.Applied, c.changes, resp.Error)
		}
	}
}

// epochOf decodes the epoch a response was computed at.
func epochOf(body []byte) (uint64, error) {
	var resp struct {
		Epoch uint64 `json:"epoch"`
	}
	err := json.Unmarshal(body, &resp)
	return resp.Epoch, err
}

// verifySummaries checks every completed summarize response against g, the
// benchmark's own copy of the graph. The workload that sends summaries never
// writes, so each must have been computed at epoch 0.
func verifySummaries(g *fgs.Graph, groups *fgs.Groups, calls []*call, rep *gateReport) {
	var todo []*call
	for _, c := range calls {
		if !isSummarize(c) || c.status != http.StatusOK || c.censored {
			continue
		}
		switch e, err := epochOf(c.resp); {
		case err != nil:
			rep.fail("%s: bad response: %v", c.describe(), err)
		case e != 0:
			rep.fail("%s: computed at epoch %d, but nothing was written", c.describe(), e)
		default:
			todo = append(todo, c)
		}
	}
	checkSummaries(g, groups, todo, rep)
}

// checkSummaries verifies summaries against g in parallel: verification
// only reads the graph.
func checkSummaries(g *fgs.Graph, groups *fgs.Groups, calls []*call, rep *gateReport) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(calls) {
					mu.Unlock()
					return
				}
				c := calls[next]
				next++
				mu.Unlock()
				cr, err := checkSummary(g, groups, c)
				mu.Lock()
				if err != nil {
					rep.fail("%s: %v", c.describe(), err)
				} else {
					if rep.cr == nil {
						rep.cr = map[*call]float64{}
					}
					rep.cr[c] = cr
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// checkMaintained checks the summary the engine maintains under writes. The
// engine's final snapshot in dir holds its graph and the maintainer's
// checkpoint, from which core.ResumeMaintainer rebuilds the summary the
// engine serves (byte-identical, by the store's design). That summary must
// pass Verify against the snapshot's graph; checkMaintained returns its C_r.
func checkMaintained(dir string, gs groupSpec, rep *gateReport) float64 {
	st, rec, err := fgs.OpenStore(fgs.StoreOptions{Dir: dir, Fsync: fgs.FsyncOff})
	if err != nil {
		rep.fail("maintained summary: reopen store: %v", err)
		return 0
	}
	cr, err := maintainedCR(rec, gs)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		rep.fail("maintained summary: %v", err)
		return 0
	}
	return cr
}

func maintainedCR(rec *fgs.StoreRecovered, gs groupSpec) (float64, error) {
	if rec.Fresh || len(rec.Tail) > 0 {
		return 0, fmt.Errorf("final snapshot missing or behind the log (%d records past it)", len(rec.Tail))
	}
	g := rec.Graph
	groups, err := gs.build(g)
	if err != nil {
		return 0, err
	}
	util, err := buildUtility(g, engineUtility)
	if err != nil {
		return 0, err
	}
	cfg := fgs.Config{R: engineR, N: engineN}
	_, s, err := core.ResumeMaintainer(g, groups, util, cfg, rec.State)
	if err != nil {
		return 0, err
	}
	if err := verify(g, groups, engineUtility, cfg, s); err != nil {
		return 0, err
	}
	return compression(g, s), nil
}

// applyBatch applies an acknowledged update to the benchmark's graph copy.
func applyBatch(g *fgs.Graph, b *batch) error {
	for _, e := range b.insert {
		if err := g.AddEdge(fgs.NodeID(e.From), fgs.NodeID(e.To), e.Label); err != nil {
			return err
		}
	}
	for _, e := range b.delete {
		if err := g.RemoveEdge(fgs.NodeID(e.From), fgs.NodeID(e.To), e.Label); err != nil {
			return err
		}
	}
	return nil
}

// gateEmbedCap bounds the embeddings per (pattern, covered node) that
// ReadSummaryJSON enumerates when it re-derives a pattern's covered edges.
// Unbounded, one hub anchor can take hours: a star of four corev edges into
// a user with a thousand in-edges has about 1e9 embeddings at it, and the
// engine returns such a pattern for some summarize-k requests on the scale
// graph. The cap cannot make the gate accept a wrong summary. Capping only
// shrinks the re-derived P_E, and Verify reads P_E in the lossless check
// alone, as missing = E^r − (P_E ∪ C), which a smaller P_E can only grow;
// its spurious check (C ⊄ E) and every other condition ignore P_E. So a
// summary that verifies under the cap verifies without it.
const gateEmbedCap = 1_000_000

// checkSummary verifies one summarize response against g and returns its
// compression ratio C_r.
func checkSummary(g *fgs.Graph, groups *fgs.Groups, c *call) (float64, error) {
	var resp struct {
		Summary json.RawMessage `json:"summary"`
	}
	if err := json.Unmarshal(c.resp, &resp); err != nil {
		return 0, fmt.Errorf("bad response: %w", err)
	}
	s, err := fgs.ReadSummaryJSON(bytes.NewReader(resp.Summary), g, gateEmbedCap)
	if err != nil {
		return 0, err
	}
	if err := verify(g, groups, c.utility, fgs.Config{R: c.r, K: c.k, N: c.n}, s); err != nil {
		return 0, err
	}
	return compression(g, s), nil
}

// compression is a summary's compression ratio C_r.
func compression(g *fgs.Graph, s *fgs.Summary) float64 {
	structure := 0
	for _, pi := range s.Patterns {
		structure += pi.P.Size()
	}
	return fgs.CompressionRatio(g, s.R, s.Covered, structure, s.Corrections.Len())
}

// verify runs rverify on a summary for the utility and configuration that
// should have produced it.
func verify(g *fgs.Graph, groups *fgs.Groups, utility string, cfg fgs.Config, s *fgs.Summary) error {
	util, err := buildUtility(g, utility)
	if err != nil {
		return err
	}
	if s.R != cfg.R {
		return fmt.Errorf("summary has r=%d, requested %d", s.R, cfg.R)
	}
	rep := fgs.Verify(g, groups, util, cfg, s, int(^uint(0)>>1), 0)
	if !rep.Feasible() {
		return fmt.Errorf("verify: %s", rep.String())
	}
	return nil
}

// buildUtility constructs a utility from fgsd's spec syntax through the
// public constructors.
func buildUtility(g *fgs.Graph, spec string) (fgs.Utility, error) {
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "", "coverage":
		return fgs.NewNeighborCoverage(g, fgs.NeighborsIn, arg), nil
	case "rating":
		if arg == "" {
			arg = "rating"
		}
		return fgs.NewRatingSum(g, arg), nil
	case "diversity":
		return fgs.NewAttributeDiversity(g, arg), nil
	case "cardinality":
		return fgs.NewCardinality(), nil
	}
	return nil, fmt.Errorf("unknown utility %q", spec)
}

func truncate(b []byte) string {
	const max = 200
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}
