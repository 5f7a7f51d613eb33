// Command fgsbench regenerates the figures of the paper's evaluation
// section on the synthetic datasets and prints them as tables.
//
// Usage:
//
//	fgsbench -exp fig8a,fig8b          # specific figures
//	fgsbench -exp all -scale 1         # the full evaluation
//	fgsbench -load http://localhost:8471 -load-requests 1024 -load-concurrency 16
//	                                   # drive mixed traffic at a running fgsd
//	fgsbench -scale-bench -scale-nodes 1000000 -scale-duration 20s
//	                                   # the same driver in-process, under bulk ingest
//
// Experiments: fig8a fig8b fig8c fig8d fig8e fig8f fig9a fig9b fig9c fig9d
// fig10a fig10b case-talent case-pandemic. See DESIGN.md for the mapping
// to the paper's figures and EXPERIMENTS.md for expected shapes.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // mounted on the -fgs.metrics-addr listener
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/cwru-db/fgs/internal/experiments"
	"github.com/cwru-db/fgs/internal/obs"
)

func main() {
	var (
		exps    = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale   = flag.Int("scale", 1, "dataset scale (1 = test-sized)")
		seed    = flag.Int64("seed", 42, "generator seed; also seeds the -load and -scale-bench request mixes")
		format  = flag.String("format", "table", "output format: table or csv")
		workers = flag.Int("workers", 0, "mining/scoring worker goroutines (0 = sequential, the paper-comparable default; metric values are identical at any setting)")

		traceOut    = flag.String("fgs.trace", "", "write a Chrome trace of the run's phase spans to this file")
		metricsOut  = flag.String("fgs.metrics-out", "", "write runtime counters in Prometheus text format to this file")
		metricsAddr = flag.String("fgs.metrics-addr", "", "serve /metrics (Prometheus) and /debug/pprof on this address while the run lasts")
		obsSummary  = flag.Bool("fgs.obs-summary", false, "print the runtime-counter summary table to stderr")

		loadURL  = flag.String("load", "", "run as a load driver against an fgsd base URL (e.g. http://localhost:8471) instead of the experiment suite; -seed seeds the request mix")
		loadReqs = flag.Int("load-requests", 256, "load mode: total requests to send")
		loadConc = flag.Int("load-concurrency", 8, "load mode: concurrent client goroutines")

		scaleBench      = flag.Bool("scale-bench", false, "run the scale tier: the load driver in-process over a large graph, beside back-to-back bulk update batches")
		scaleGraph      = flag.String("scale-graph", "", "scale mode: graph file to load (text or binary, sniffed; empty = generate a sized LKI graph)")
		scaleNodes      = flag.Int("scale-nodes", 1_000_000, "scale mode: generated graph node count")
		scaleGroups     = flag.String("scale-groups", "user:city:c0,c1:1:4", "scale mode: group spec label:attr:val1,val2:lower:upper")
		scaleDuration   = flag.Duration("scale-duration", 20*time.Second, "scale mode: measured duration")
		scaleReaders    = flag.Int("scale-readers", 8, "scale mode: concurrent reader goroutines")
		scaleWriters    = flag.Int("scale-writers", 2, "scale mode: concurrent writer goroutines")
		scaleWriteBatch = flag.Int("scale-write-batch", 256, "scale mode: edges per update batch")
		scaleMemCeiling = flag.Int("scale-mem-ceiling-mb", 0, "scale mode: fail if peak heap exceeds this many MB (0 = no ceiling)")
		scaleOut        = flag.String("scale-out", "", "scale mode: also write the JSON result to this file")
	)
	flag.Parse()

	suite := experiments.New(*scale, *seed)
	suite.Workers = *workers

	// Observability is opt-in: any obs flag installs a collector on the suite.
	// Collection never changes figure values (DESIGN.md §8).
	var observer *obs.Observer
	if *traceOut != "" || *metricsOut != "" || *metricsAddr != "" || *obsSummary {
		observer = obs.NewObserver(nil)
		suite.Obs = observer
	}
	stopMetrics := func() {}
	if *metricsAddr != "" {
		stopMetrics = serveMetrics(*metricsAddr, observer)
	}

	if *scaleBench || *loadURL != "" {
		var err error
		if *scaleBench {
			err = runScale(os.Stdout, scaleConfig{
				GraphPath:    *scaleGraph,
				Nodes:        *scaleNodes,
				Seed:         *seed,
				GroupSpec:    *scaleGroups,
				Duration:     *scaleDuration,
				Readers:      *scaleReaders,
				Writers:      *scaleWriters,
				WriteBatch:   *scaleWriteBatch,
				MemCeilingMB: *scaleMemCeiling,
				OutPath:      *scaleOut,
			})
		} else {
			err = runLoad(os.Stdout, strings.TrimRight(*loadURL, "/"), driveConfig{
				Clients:  *loadConc,
				Requests: *loadReqs,
				Seed:     *seed,
				Mix:      loadMix,
			})
		}
		stopMetrics()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fgsbench:", err)
			os.Exit(1)
		}
		return
	}
	runners := map[string]func() ([]experiments.Row, error){
		"fig8a":         suite.Fig8a,
		"fig8b":         suite.Fig8b,
		"fig8c":         suite.Fig8c,
		"fig8d":         suite.Fig8d,
		"fig8e":         suite.Fig8e,
		"fig8f":         suite.Fig8f,
		"fig9a":         suite.Fig9a,
		"fig9b":         suite.Fig9b,
		"fig9c":         suite.Fig9c,
		"fig9d":         suite.Fig9d,
		"fig10a":        suite.Fig10a,
		"fig10b":        suite.Fig10b,
		"case-talent":   suite.CaseTalent,
		"case-pandemic": suite.CasePandemic,
	}
	order := []string{
		"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f",
		"fig9a", "fig9b", "fig9c", "fig9d", "fig10a", "fig10b",
		"case-talent", "case-pandemic",
	}

	var selected []string
	if *exps == "all" {
		selected = order
	} else {
		for _, e := range strings.Split(*exps, ",") {
			e = strings.TrimSpace(e)
			if _, ok := runners[e]; !ok {
				fmt.Fprintf(os.Stderr, "fgsbench: unknown experiment %q\n", e)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	var all []experiments.Row
	for _, e := range selected {
		// A per-figure span wraps every run of the figure's algorithms; the
		// algorithm spans nest inside it in the exported trace.
		sp := observer.GetTrace().Start(e)
		start := time.Now()
		rows, err := runners[e]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fgsbench: %s: %v\n", e, err)
			os.Exit(1)
		}
		sp.SetArg("rows", int64(len(rows)))
		sp.End()
		fmt.Fprintf(os.Stderr, "fgsbench: %s done in %v (%d rows)\n", e, time.Since(start).Round(time.Millisecond), len(rows))
		all = append(all, rows...)
	}
	switch *format {
	case "table":
		fmt.Print(experiments.FormatRows(all))
	case "csv":
		if err := writeCSV(os.Stdout, all); err != nil {
			fmt.Fprintln(os.Stderr, "fgsbench:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "fgsbench: unknown format %q\n", *format)
		os.Exit(2)
	}

	stopMetrics()
	if observer != nil {
		var table io.Writer
		if *obsSummary {
			table = os.Stderr
		}
		if err := observer.Export(*traceOut, *metricsOut, table); err != nil {
			fmt.Fprintln(os.Stderr, "fgsbench:", err)
			os.Exit(1)
		}
	}
}

// serveMetrics exposes /metrics in the Prometheus text format plus the
// net/http/pprof handlers (imported for effect onto the default mux) on addr
// for the duration of the run. It returns a stop function that shuts the
// listener down gracefully — finishing any in-flight scrape — instead of
// leaking the server until process exit.
func serveMetrics(addr string, o *obs.Observer) func() {
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := obs.WritePrometheus(w, o.Gather()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	srv := &http.Server{Addr: addr} // nil handler = DefaultServeMux, where pprof registered
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "fgsbench: metrics listener: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "fgsbench: serving /metrics and /debug/pprof on %s\n", addr)
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "fgsbench: metrics shutdown: %v\n", err)
		}
	}
}

// writeCSV emits one row per data point for plotting tools.
func writeCSV(w *os.File, rows []experiments.Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"exp", "dataset", "algo", "x_label", "x", "metric", "value"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Exp, r.Dataset, r.Algo, r.XLabel,
			strconv.FormatFloat(r.X, 'g', -1, 64),
			r.Metric,
			strconv.FormatFloat(r.Value, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
