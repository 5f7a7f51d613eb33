// Command fgs computes a fair r-summary of a graph in the text format.
//
// Groups are induced from an attribute of the nodes with a given label; each
// listed attribute value becomes one group under the same [lower, upper]
// coverage constraint.
//
// Usage:
//
//	fgs -graph lki.graph -label user -attr gender -values male,female \
//	    -lower 40 -upper 60 -n 100 -r 2 -algo apxfgs
//
// Algorithms: apxfgs (unbounded patterns, minimizes accumulated loss C_l),
// kapxfgs (at most -k patterns, minimizes |C|), online (streaming).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	fgs "github.com/cwru-db/fgs"
	"github.com/cwru-db/fgs/datasets"
	"github.com/cwru-db/fgs/internal/submod"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "input graph in text format (required)")
		label     = flag.String("label", "user", "node label the groups are drawn from")
		attr      = flag.String("attr", "gender", "attribute key that defines the groups")
		values    = flag.String("values", "male,female", "comma-separated attribute values, one group each")
		lower     = flag.Int("lower", 1, "group coverage lower bound l")
		upper     = flag.Int("upper", 10, "group coverage upper bound u")
		n         = flag.Int("n", 20, "max covered nodes")
		k         = flag.Int("k", 20, "max patterns (kapxfgs/online)")
		r         = flag.Int("r", 2, "reconstruction hops")
		algo      = flag.String("algo", "apxfgs", "apxfgs, kapxfgs, or online")
		utilFlag  = flag.String("utility", "coverage", "coverage[:edgelabel], rating[:attr], diversity:attr, or cardinality")
		verify    = flag.Bool("verify", true, "run rverify on the result")
		export    = flag.String("export", "", "write the summary as JSON to this file")
		workers   = flag.Int("workers", 0, "mining/scoring worker goroutines (0 = sequential; results identical)")
		query     = flag.String("query", "", "pattern file to answer over the summary as a view")

		traceOut   = flag.String("fgs.trace", "", "write a Chrome trace of the run's phase spans to this file")
		metricsOut = flag.String("fgs.metrics-out", "", "write runtime counters in Prometheus text format to this file")
		obsSummary = flag.Bool("fgs.obs-summary", false, "print the runtime-counter summary table to stderr")
	)
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		fatal(err)
	}
	g, err := fgs.ReadGraph(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	groups, err := datasets.GroupsByAttr(g, *label, *attr, strings.Split(*values, ","), *lower, *upper)
	if err != nil {
		fatal(err)
	}

	util, err := submod.ParseUtility(g, *utilFlag)
	if err != nil {
		fatal(err)
	}
	makeUtil := util.Clone
	cfg := fgs.Config{R: *r, N: *n, Workers: *workers}

	// Observability is opt-in: any obs flag installs a collector. It changes
	// nothing about the summary (see DESIGN.md §8).
	var observer *fgs.Observer
	if *traceOut != "" || *metricsOut != "" || *obsSummary {
		observer = fgs.NewObserver(nil)
		cfg.Obs = observer
	}

	var summary *fgs.Summary
	switch *algo {
	case "apxfgs":
		summary, err = fgs.Summarize(g, groups, makeUtil(), cfg)
	case "kapxfgs":
		cfg.K = *k
		summary, err = fgs.SummarizeK(g, groups, makeUtil(), cfg)
	case "online":
		cfg.K = *k
		o := fgs.NewOnline(g, groups, makeUtil(), cfg)
		o.ProcessAll(groupNodes(groups))
		summary, err = o.Finish()
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	if err != nil {
		fatal(err)
	}

	fmt.Print(summary)
	if *verify {
		rep := fgs.Verify(g, groups, makeUtil(), cfg, summary, summary.CL, 0)
		fmt.Println("verification:", rep)
	}
	fmt.Printf("coverage error: %.4f\n", fgs.CoverageError(groups, summary.Covered))
	structure := 0
	for _, pi := range summary.Patterns {
		structure += pi.P.Size()
	}
	fmt.Printf("compression ratio: %.4f\n",
		fgs.CompressionRatio(g, *r, summary.Covered, structure, summary.Corrections.Len()))

	if *query != "" {
		qf, err := os.Open(*query)
		if err != nil {
			fatal(err)
		}
		p, err := fgs.ParsePattern(qf)
		qf.Close()
		if err != nil {
			fatal(err)
		}
		answers := fgs.QueryView(g, summary, p, 0)
		fmt.Printf("view query answers (%d):", len(answers))
		for _, v := range answers {
			fmt.Printf(" %d", v)
		}
		fmt.Println()
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fatal(err)
		}
		if err := fgs.WriteSummaryJSON(f, summary, g); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "summary exported to %s\n", *export)
	}

	if observer != nil {
		var table io.Writer
		if *obsSummary {
			table = os.Stderr
		}
		if err := observer.Export(*traceOut, *metricsOut, table); err != nil {
			fatal(err)
		}
	}
}

func groupNodes(groups *fgs.Groups) []fgs.NodeID {
	var out []fgs.NodeID
	for i := 0; i < groups.Len(); i++ {
		out = append(out, groups.At(i).Members...)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fgs:", err)
	os.Exit(1)
}
