// Command perfbench is the repository's benchmark. It boots fgsd's serving
// engine in-process with fgsd's flag defaults, drives one of two seeded
// workloads through the engine's HTTP handler, checks every response, and
// prints each metric by name with its unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {"p50_ms": {"value": 4.1, "unit": "ms"}, ...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics. See README.md for the workloads,
// the metric definitions and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration // the timed window, from -seconds
	traced   bool
	// scratch is where runs keep data directories and trace files: under
	// the checkout, never outside it.
	scratch string
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// outcome is what one workload run produced.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric // the mode's declared metrics, in report order
	details   []metric // context lines: metric names per workload, counts
	notes     []string // correctness problems and other remarks
	prov      provenance
}

// provenance records what a result was measured on.
type provenance struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Traced      bool   `json:"traced"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	Nodes       int    `json:"graph_nodes"`
	Edges       int    `json:"graph_edges"`
	EdgeIDBound int    `json:"graph_edge_id_bound"`
	Groups      string `json:"groups"`
	Fsync       string `json:"fsync,omitempty"`
	DataFS      string `json:"data_fs,omitempty"`
	TailQ       string `json:"tail_percentile"`
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"summarize": runSummarize,
	"ingest":    runIngest,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: summarize or ingest")
		seed     = flag.Int64("seed", 1, "workload seed: request order, arrival times and write batches")
		seconds  = flag.Int("seconds", 30, "length of the timed window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload summarize|ingest, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		scratch:  filepath.Join(wd, ".bench_build"),
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fatal(err)
	}
	out, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	out.prov.Workload, out.prov.Seed, out.prov.Seconds, out.prov.Traced = cfg.workload, cfg.seed, *seconds, cfg.traced
	out.prov.GOMAXPROCS, out.prov.NumCPU = runtime.GOMAXPROCS(0), runtime.NumCPU()
	out.prov.GoVersion, out.prov.Commit = runtime.Version(), commit()
	report(out)
	if !out.correct {
		os.Exit(1)
	}
	// Exit rather than return: a request the benchmark stopped waiting for
	// (a censored one) may still be computing in the engine, and the
	// algorithms are not preemptible.
	os.Exit(0)
}

// report prints the human-readable lines, the provenance line and, last,
// the JSON result.
func report(out *outcome) {
	for _, m := range out.metrics {
		fmt.Printf("%-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range out.details {
		fmt.Printf("  %-32s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, n := range out.notes {
		fmt.Println("note:", n)
	}
	prov, err := json.Marshal(out.prov)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("provenance %s\n", prov)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, map[string]value{}}
	for _, m := range out.metrics {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// commit is the VCS revision embedded at build time, or "unknown" when the
// benchmark was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sortedNames returns a map's keys in order, for deterministic output.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// logf reports progress on standard error, keeping standard output for
// results.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
