// Command fgsd is the fair-group-summarization daemon: it loads a graph and
// serves summarization traffic over HTTP/JSON (DESIGN.md §10).
//
// Usage:
//
//	fgsd -addr :8471 -graph lki.graph -groups user:gender:male,female:40:60
//	fgsd                                  # no -graph: serve the demo LKI graph
//
// Endpoints:
//
//	POST /v1/summarize    {"r":2,"n":20,"utility":"coverage"}   fresh APXFGS summary
//	POST /v1/summarize-k  {"k":5,"n":20}                        k-APXFGS summary
//	POST /v1/view         {"pattern":"n 0 user\nf 0"}           query the maintained summary as a view
//	POST /v1/workload     {}                                    summary patterns as benchmark queries
//	POST /v1/update       {"insert":[{"from":1,"to":2,"label":"corev"}]}
//	GET  /v1/stats        engine snapshot (epoch, sizes, cache/admission counters)
//	GET  /healthz         liveness; 503 while draining
//	GET  /metrics         Prometheus text exposition (with trace-ID exemplars)
//
//	GET  /debug/fgs/views           MVCC publication state: epochs, pins, replica pool
//	GET  /debug/fgs/cache           result-cache occupancy by epoch-prefixed key
//	GET  /debug/fgs/fairness        per-group coverage of the published summary
//	GET  /debug/fgs/flightrecorder  recent-request ring, newest last
//
// Every request gets a trace ID — propagated from an incoming W3C
// `traceparent` header or minted — echoed as X-Fgs-Trace, with the
// per-stage breakdown in Server-Timing. Boot, publish, drain, and
// slow-request events are structured logs (-log-format text|json) keyed by
// trace ID. SIGQUIT dumps the flight recorder without stopping the server;
// SIGINT/SIGTERM triggers a graceful drain: stop accepting, finish in-flight
// requests, dump the flight recorder, then flush the final Chrome trace /
// Prometheus dump if -fgs.trace / -fgs.metrics-out are set.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	fgs "github.com/cwru-db/fgs"
	"github.com/cwru-db/fgs/datasets"
)

func main() {
	var (
		addr      = flag.String("addr", ":8471", "listen address")
		graphPath = flag.String("graph", "", "input graph, text or binary format — sniffed (empty = demo LKI graph)")
		groupSpec = flag.String("groups", "user:gender:male,female:1:10", "group spec: label:attr:val1,val2:lower:upper")
		r         = flag.Int("r", 2, "default reconstruction hops")
		n         = flag.Int("n", 20, "default max covered nodes")
		k         = flag.Int("k", 0, "default max patterns for /v1/summarize-k (0 = require per-request k)")
		utility   = flag.String("utility", "coverage", "maintained summary's utility: coverage[:edgelabel], rating[:attr], diversity:attr, cardinality")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent compute requests (admission slots); also the mining worker count")
		queue     = flag.Int("queue", 0, "admission queue depth (0 = 4x workers, negative = no queue)")
		cacheEnt  = flag.Int("cache-entries", 256, "epoch-keyed result cache capacity (negative = disabled)")
		deadline  = flag.Duration("deadline", 30*time.Second, "per-request deadline (queue wait included)")
		embedCap  = flag.Int("embed-cap", 0, "embedding enumeration cap for view/workload queries (0 = default)")
		maxViews  = flag.Int("max-views", 0, "MVCC replica pool cap; bounds graph memory to max-views copies (0 = default 3, min 2)")
		drainFor  = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")

		dataDir   = flag.String("data-dir", "", "fgstore data directory for WAL + snapshots (empty = in-memory only, state lost on exit)")
		fsyncPol  = flag.String("fsync", "batch", "WAL durability: batch (sync each update before acknowledging it) or off (no sync on the append path)")
		snapEvery = flag.Int("snapshot-every", 256, "snapshot after this many graph-changing batches (0 = only on drain)")
		walSegMB  = flag.Int("wal-segment-mb", 64, "WAL segment size before rolling, in MiB")

		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
		noTrace     = flag.Bool("no-trace", false, "disable request tracing (no trace IDs, stage histograms, or flight recorder)")
		slowReq     = flag.Duration("slow-request", 10*time.Second, "log requests slower than this with their stage breakdown and dump the flight recorder (0 = off)")
		flightEvts  = flag.Int("flight-events", 1024, "flight recorder ring size, rounded up to a power of two (negative = disabled)")
		flightDumpF = flag.String("flight-dump", "", "file receiving flight-recorder dumps on 5xx/slow/SIGQUIT/drain (empty = stderr)")

		demoSeed  = flag.Int64("demo-seed", 42, "demo graph generator seed")
		demoScale = flag.Int("demo-scale", 1, "demo graph scale")

		traceOut   = flag.String("fgs.trace", "", "write a Chrome trace of the maintainer's phase spans to this file on shutdown")
		metricsOut = flag.String("fgs.metrics-out", "", "write final runtime counters in Prometheus text format to this file on shutdown")
		obsSummary = flag.Bool("fgs.obs-summary", false, "print the runtime-counter summary table to stderr on shutdown")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fatal(fmt.Errorf("bad -log-format %q: want text or json", *logFormat))
	}
	log := slog.New(handler)

	var dumpW io.Writer = os.Stderr
	if *flightDumpF != "" {
		f, err := os.Create(*flightDumpF)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dumpW = f
	}

	var observer *fgs.Observer
	if *traceOut != "" || *metricsOut != "" || *obsSummary {
		observer = fgs.NewObserver(nil)
	}

	// Open the store first: a data directory with recovered state overrides
	// -graph (the durable graph is the truth; the flag described the seed).
	var st *fgs.Store
	var recovered *fgs.StoreRecovered
	if *dataDir != "" {
		openStart := time.Now()
		var err error
		st, recovered, err = fgs.OpenStore(fgs.StoreOptions{
			Dir:          *dataDir,
			Fsync:        *fsyncPol,
			SegmentBytes: int64(*walSegMB) << 20,
			Log:          log,
		})
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		log.Info("store open",
			"dir", *dataDir, "fsync", *fsyncPol, "duration", time.Since(openStart),
			"fresh", recovered.Fresh, "snapshot_epoch", recovered.SnapshotEpoch,
			"epoch", recovered.Epoch, "wal_tail", len(recovered.Tail),
			"wal_tail_bytes", recovered.TailBytes, "torn_truncated", recovered.Truncated)
	}

	var g *fgs.Graph
	loadStart := time.Now()
	switch {
	case recovered != nil && !recovered.Fresh:
		if *graphPath != "" {
			log.Warn("ignoring -graph: data directory has recovered state", "graph", *graphPath, "data_dir", *dataDir)
		}
		g = recovered.Graph
	case *graphPath == "":
		log.Info("no -graph given; serving the demo LKI graph", "seed", *demoSeed, "scale", *demoScale)
		g = datasets.LKI(*demoSeed, *demoScale)
	default:
		f, err := os.Open(*graphPath)
		if err != nil {
			fatal(err)
		}
		var rerr error
		g, rerr = fgs.ReadGraphAuto(f)
		f.Close()
		if rerr != nil {
			fatal(rerr)
		}
	}
	loadTime := time.Since(loadStart)
	sizes := g.UniverseSizes()
	log.Info("graph loaded",
		"duration", loadTime, "nodes", g.NumNodes(), "edges", g.NumEdges(),
		"node_labels", sizes[0], "edge_labels", sizes[1], "attr_keys", sizes[2])
	if observer != nil {
		reg := observer.Reg
		reg.Add("fgsd_boot_graph_load_ms", "Graph load wall time at boot (ms)", nil, loadTime.Milliseconds())
		reg.Add("fgsd_boot_graph_nodes", "Nodes in the boot graph", nil, int64(g.NumNodes()))
		reg.Add("fgsd_boot_graph_edges", "Edges in the boot graph", nil, int64(g.NumEdges()))
	}

	label, attr, values, lower, upper, err := datasets.ParseGroupSpec(*groupSpec)
	if err != nil {
		fatal(fmt.Errorf("-groups: %w", err))
	}
	groups, err := datasets.GroupsByAttr(g, label, attr, values, lower, upper)
	if err != nil {
		fatal(err)
	}

	srv, err := fgs.NewServer(g, groups, fgs.ServerConfig{
		R:              *r,
		K:              *k,
		N:              *n,
		Utility:        *utility,
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEnt,
		Deadline:       *deadline,
		EmbedCap:       *embedCap,
		MaxViews:       *maxViews,
		Obs:            observer,
		DisableTracing: *noTrace,
		FlightEvents:   *flightEvts,
		SlowRequest:    *slowReq,
		Log:            log,
		FlightDump:     dumpW,
		Store:          st,
		Resume:         recovered,
		SnapshotEvery:  *snapEvery,
	})
	if err != nil {
		fatal(err)
	}
	log.Info("engine ready", "nodes", g.NumNodes(), "edges", g.NumEdges(), "groups", groups.Len())

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGQUIT dumps the flight recorder without stopping the server — the
	// "what just happened" lever when the process is misbehaving but alive.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			if err := srv.DumpFlightRecorder(dumpW, "sigquit"); err != nil {
				log.Error("flight dump failed", "reason", "sigquit", "error", err)
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("serving",
		"addr", *addr, "workers", *workers, "cache", *cacheEnt,
		"deadline", *deadline,
		"tracing", !*noTrace, "slow_request", *slowReq, "log_format", *logFormat)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	// Drain sequence (DESIGN.md §10): flip health to 503 so load balancers
	// stop routing, refuse new compute, wait for in-flight requests, dump the
	// flight recorder (the last window of traffic is exactly what a postmortem
	// wants), then flush the final observability exports.
	log.Info("drain: refusing new work, finishing in-flight requests")
	srv.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Error("shutdown", "error", err)
	}
	if !*noTrace && *flightEvts >= 0 {
		if err := srv.DumpFlightRecorder(dumpW, "drain"); err != nil {
			log.Error("flight dump failed", "reason", "drain", "error", err)
		}
	}
	if st != nil {
		// Snapshot-on-drain: with no in-flight writes left, seal the final
		// state so the next boot recovers from the snapshot alone. Close
		// (the deferred st.Close) then seals the WAL behind it.
		if err := srv.FinalSnapshot(); err != nil {
			log.Error("final snapshot", "error", err)
		}
	}
	if observer != nil {
		var table io.Writer
		if *obsSummary {
			table = os.Stderr
		}
		if err := observer.Export(*traceOut, *metricsOut, table); err != nil {
			fatal(err)
		}
		log.Info("observability exported", "trace", *traceOut, "metrics", *metricsOut)
	}
	log.Info("drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fgsd:", err)
	os.Exit(1)
}
