// Package experiments regenerates every figure of the paper's evaluation
// (Section VIII) on the synthetic stand-in datasets. Each FigXX function
// returns typed rows; cmd/fgsbench prints them and bench_test.go drives them
// under testing.B. The per-experiment settings follow the paper exactly
// (scaled by Suite.Scale); DESIGN.md maps every figure to its function.
package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/cwru-db/fgs/internal/baseline"
	"github.com/cwru-db/fgs/internal/core"
	"github.com/cwru-db/fgs/internal/gen"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/metrics"
	"github.com/cwru-db/fgs/internal/mining"
	"github.com/cwru-db/fgs/internal/obs"
	"github.com/cwru-db/fgs/internal/submod"
)

// Row is one data point of a figure: (experiment, dataset, algorithm, x) ->
// metric value.
type Row struct {
	Exp     string
	Dataset string
	Algo    string
	XLabel  string
	X       float64
	Metric  string
	Value   float64
}

// Suite runs the experiments at a given dataset scale with a fixed seed.
// Scale 1 is test-sized; the paper's graphs correspond to roughly scale
// 100+ (runtimes grow accordingly).
type Suite struct {
	Scale int
	Seed  int64
	// Workers opts the pattern-based algorithms into the parallel
	// mine→score pipeline (core.Config.Workers). The default 0 keeps every
	// figure single-threaded, preserving comparability with the paper's
	// measurements; any setting produces identical metric values, only the
	// reported wall times change.
	Workers int
	// Obs, when set, threads the observability collector through every run:
	// phase spans land in Obs.Trace, component counters in Obs.Reg, and all
	// figure timings use Obs' clock. Nil keeps collection off (the runs then
	// time themselves against the system clock, as before).
	Obs *obs.Observer

	graphs map[string]*graph.Graph
}

// clock returns the suite's timing source: Obs' clock when set, the system
// clock otherwise (GetClock is nil-safe).
func (s *Suite) clock() obs.Clock { return s.Obs.GetClock() }

// New returns a suite at the given scale.
func New(scale int, seed int64) *Suite {
	if scale < 1 {
		scale = 1
	}
	return &Suite{Scale: scale, Seed: seed, graphs: make(map[string]*graph.Graph)}
}

// Dataset returns (and caches) one of the three evaluation graphs by name:
// "DBP", "LKI", or "Cite".
func (s *Suite) Dataset(name string) *graph.Graph {
	if g, ok := s.graphs[name]; ok {
		return g
	}
	var g *graph.Graph
	switch name {
	case "DBP":
		g = gen.DBP(s.Seed, s.Scale)
	case "LKI":
		g = gen.LKI(s.Seed+1, s.Scale)
	case "Cite":
		g = gen.Cite(s.Seed+2, s.Scale)
	default:
		// Callers pass only the three literal names above; an unknown name is
		// a programming error inside this package, not runtime input.
		//lint:allow nopanic internal invariant — dataset names are compile-time literals
		panic(fmt.Sprintf("experiments: unknown dataset %q", name))
	}
	s.graphs[name] = g
	return g
}

// setting bundles one dataset's group/utility construction for the shared
// Exp-1/Exp-2 configuration (card(V)=2, bounds [40,60]).
type setting struct {
	name    string
	g       *graph.Graph
	groups  *submod.Groups
	util    func() submod.Utility
	workers int
	obs     *obs.Observer
}

// standardSettings builds the three per-dataset configurations of
// Figs. 8(a)/8(b)/9(a): two groups each with the paper's [40,60] bounds.
// Group-construction failures (e.g. bounds infeasible at a given scale)
// propagate as errors so fgsbench can exit nonzero with a message instead of
// panicking mid-evaluation.
func (s *Suite) standardSettings(lower, upper int) ([]setting, error) {
	dbp := s.Dataset("DBP")
	lki := s.Dataset("LKI")
	cite := s.Dataset("Cite")
	dbpGroups, err := gen.GroupsByAttr(dbp, "movie", "genre", []string{"Action", "Romance"}, lower, upper)
	if err != nil {
		return nil, fmt.Errorf("DBP groups: %w", err)
	}
	lkiGroups, err := gen.GroupsByAttr(lki, "user", "gender", []string{"male", "female"}, lower, upper)
	if err != nil {
		return nil, fmt.Errorf("LKI groups: %w", err)
	}
	citeGroups, err := gen.GroupsByAttr(cite, "paper", "topic", []string{"ML", "Networking"}, lower, upper)
	if err != nil {
		return nil, fmt.Errorf("Cite groups: %w", err)
	}
	return []setting{
		{name: "DBP", g: dbp, groups: dbpGroups, util: func() submod.Utility { return submod.NewRatingSum(dbp, "rating") }, workers: s.Workers, obs: s.Obs},
		{name: "LKI", g: lki, groups: lkiGroups, util: func() submod.Utility { return submod.NewNeighborCoverage(lki, submod.NeighborsIn, "corev") }, workers: s.Workers, obs: s.Obs},
		{name: "Cite", g: cite, groups: citeGroups, util: func() submod.Utility { return submod.NewNeighborCoverage(cite, submod.NeighborsIn, "cite") }, workers: s.Workers, obs: s.Obs},
	}, nil
}

// miningCfg is the shared pattern-search budget. Small pattern sizes keep
// subgraph-isomorphism costs polynomial in practice, as the paper's T_I
// argument assumes. workers > 1 opts into the parallel scoring pipeline
// (identical output, lower wall time).
func miningCfg(workers int) mining.Config {
	return mining.Config{MaxNodes: 4, MaxLiterals: 2, MaxPatterns: 150, Workers: workers}
}

// algoOutcome normalizes one algorithm's run for scoring.
type algoOutcome struct {
	covered     []graph.NodeID
	structure   int
	corrections int
	globalRatio float64 // used instead of the regional ratio when > 0
	elapsed     time.Duration
}

// runKAPXFGS executes the k-bounded variant.
func runKAPXFGS(st setting, r, k, n int) (algoOutcome, error) {
	cfg := core.Config{R: r, K: k, N: n, Mining: miningCfg(st.workers), Obs: st.obs}
	clock := st.obs.GetClock()
	start := clock.Now()
	sum, err := core.KAPXFGS(st.g, st.groups, st.util(), cfg)
	if err != nil {
		return algoOutcome{}, err
	}
	structure := 0
	for _, pi := range sum.Patterns {
		structure += pi.P.Size()
	}
	return algoOutcome{covered: sum.Covered, structure: structure, corrections: sum.Corrections.Len(), elapsed: clock.Now().Sub(start)}, nil
}

// runOnline executes Online-APXFGS over the group nodes as a stream.
func runOnline(st setting, r, k, n int) (algoOutcome, error) {
	cfg := core.Config{R: r, K: k, N: n, Mining: miningCfg(st.workers), Obs: st.obs}
	clock := st.obs.GetClock()
	start := clock.Now()
	o := core.NewOnline(st.g, st.groups, st.util(), cfg)
	o.ProcessAll(st.groups.All())
	sum, err := o.Finish()
	if err != nil {
		return algoOutcome{}, err
	}
	structure := 0
	for _, pi := range sum.Patterns {
		structure += pi.P.Size()
	}
	return algoOutcome{covered: sum.Covered, structure: structure, corrections: sum.Corrections.Len(), elapsed: clock.Now().Sub(start)}, nil
}

// fromBaseline adapts a baseline.Result.
func fromBaseline(res baseline.Result) algoOutcome {
	return algoOutcome{covered: res.Covered, structure: res.StructureSize, corrections: res.Corrections, globalRatio: res.GlobalRatio, elapsed: res.Elapsed}
}

// runAll runs the full algorithm lineup of Exp-1 on one setting.
// algoOrder is the canonical emission order for runAll's outcomes: map
// iteration is randomized per process, and figure rows must come out in the
// same order every run (the CSV writer, unlike FormatRows, does not sort).
var algoOrder = []string{"APXFGS", "Online-APXFGS", "Grami", "d-sum", "MMPG", "Mosso"}

// orderedAlgos returns the outcome keys present in outcomes, in canonical
// order (any key outside algoOrder follows, sorted).
func orderedAlgos(outcomes map[string]algoOutcome) []string {
	algos := make([]string, 0, len(outcomes))
	for _, a := range algoOrder {
		if _, ok := outcomes[a]; ok {
			algos = append(algos, a)
		}
	}
	if len(algos) < len(outcomes) {
		rest := make([]string, 0, len(outcomes)-len(algos))
		for a := range outcomes {
			if !slices.Contains(algoOrder, a) {
				rest = append(rest, a)
			}
		}
		sort.Strings(rest)
		algos = append(algos, rest...)
	}
	return algos
}

func (s *Suite) runAll(st setting, r, k, n int) (map[string]algoOutcome, error) {
	out := make(map[string]algoOutcome, 6)
	apx, err := runKAPXFGS(st, r, k, n)
	if err != nil {
		return nil, fmt.Errorf("%s: APXFGS: %w", st.name, err)
	}
	out["APXFGS"] = apx
	onl, err := runOnline(st, r, k, n)
	if err != nil {
		return nil, fmt.Errorf("%s: Online: %w", st.name, err)
	}
	out["Online-APXFGS"] = onl
	out["Grami"] = fromBaseline(baseline.Grami(st.g, st.groups, baseline.GramiConfig{R: r, K: k, N: n, Mining: miningCfg(st.workers)}))
	out["d-sum"] = fromBaseline(baseline.DSum(st.g, st.groups, baseline.DSumConfig{D: r, K: k, N: n, Mining: miningCfg(st.workers)}))
	out["MMPG"] = fromBaseline(baseline.MMPG(st.g, st.groups, baseline.MMPGConfig{R: r, K: k, N: n, Mining: miningCfg(st.workers)}))
	out["Mosso"] = fromBaseline(baseline.SummarizeStatic(st.g, st.groups, n, s.Seed))
	return out, nil
}

// score converts an outcome into the two Exp-1 metrics.
func score(g *graph.Graph, groups *submod.Groups, r int, o algoOutcome) (covErr, compRatio float64) {
	covErr = metrics.CoverageError(groups, o.covered)
	if o.globalRatio > 0 {
		return covErr, o.globalRatio
	}
	return covErr, metrics.CompressionRatio(g, r, o.covered, o.structure, o.corrections)
}

// FormatRows renders rows as an aligned table, grouped by experiment.
func FormatRows(rows []Row) string {
	sorted := append([]Row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Exp != sorted[j].Exp {
			return sorted[i].Exp < sorted[j].Exp
		}
		if sorted[i].Dataset != sorted[j].Dataset {
			return sorted[i].Dataset < sorted[j].Dataset
		}
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Algo < sorted[j].Algo
	})
	var b strings.Builder
	lastExp := ""
	for _, r := range sorted {
		if r.Exp != lastExp {
			fmt.Fprintf(&b, "\n== %s ==\n", r.Exp)
			lastExp = r.Exp
		}
		x := ""
		if r.XLabel != "" {
			x = fmt.Sprintf(" %s=%g", r.XLabel, r.X)
		}
		fmt.Fprintf(&b, "%-6s %-14s%-8s %-18s %10.4f\n", r.Dataset, r.Algo, x, r.Metric, r.Value)
	}
	return b.String()
}
