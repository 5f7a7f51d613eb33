// Command fgslint is the repository's determinism & safety linter: a go
// vet-style multichecker that enforces the contract behind the promise that
// summaries and figures are byte-identical across runs and worker counts,
// and — since the control-flow suite — that the MVCC service tier's
// resources pair up and its published epochs stay frozen.
//
// Usage:
//
//	fgslint ./...                    # whole module (what CI runs)
//	fgslint ./internal/experiments   # one package
//	fgslint -checks maporder,detrand ./internal/...
//	fgslint -json ./...              # machine-readable findings + allow inventory
//	fgslint -budget lint-budget.json ./...        # enforce the allow ratchet
//	fgslint -write-budget lint-budget.json ./...  # rewrite the budget to current counts
//
// Analyzers (see DESIGN.md "Determinism contract & lint" and "Control-flow
// lint architecture"):
//
//	maporder        map iteration order reaching an append/write path unsorted
//	detrand         global math/rand, unseeded rand.New, time.Now in deterministic packages
//	nopanic         panic/log.Fatal/os.Exit in library packages
//	pairdiscipline  acquire without release on some path (locks, pins, slots, spans, pools)
//	frozenview      mutation of a frozen MVCC read view
//	errdrop         discarded error returns in library packages
//	ctxpoll         unbounded server loops that never poll ctx.Done()
//
// A finding is suppressed by "//lint:allow <analyzer> <why>" on the flagged
// line or the line above it. Every allow counts against lint-budget.json:
// with -budget, fgslint exits 1 if any analyzer's allow count exceeds its
// budgeted count, so suppressions only grow with a conscious budget edit in
// the same change. fgslint exits 1 on findings or budget overruns, 2 on
// usage or load errors. It is built entirely on the standard library's
// go/ast and go/types, so it runs offline with no module downloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/cwru-db/fgs/internal/lint"
)

// jsonFinding mirrors lint.Diagnostic with a stable, documented field order
// (encoding/json emits struct fields in declaration order).
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json output: findings first, then the allow inventory
// the budget ratchet compares against (map keys are sorted by encoding/json).
type jsonReport struct {
	Findings []jsonFinding  `json:"findings"`
	Allows   map[string]int `json:"allows"`
}

func main() {
	checks := flag.String("checks", "all", "comma-separated analyzer names, or 'all'")
	asJSON := flag.Bool("json", false, "emit findings and the allow inventory as JSON on stdout")
	budgetPath := flag.String("budget", "", "enforce the //lint:allow budget in this JSON file")
	writeBudget := flag.String("write-budget", "", "rewrite this JSON file to the current allow counts and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fgslint [-checks list] [-json] [-budget file | -write-budget file] [./... | ./pkg/... | ./pkg]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers, err := lint.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgslint:", err)
		os.Exit(2)
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgslint:", err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgslint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadPatterns(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgslint:", err)
		os.Exit(2)
	}

	allows := lint.CountAllows(pkgs)
	if *writeBudget != "" {
		if err := writeBudgetFile(*writeBudget, allows); err != nil {
			fmt.Fprintln(os.Stderr, "fgslint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "fgslint: allow budget written to %s\n", *writeBudget)
		return
	}

	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgslint:", err)
		os.Exit(2)
	}
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = rel
		}
	}

	if *asJSON {
		report := jsonReport{Findings: []jsonFinding{}, Allows: allows}
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonFinding{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "fgslint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	failed := false
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fgslint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		failed = true
	}
	if *budgetPath != "" {
		overruns, err := checkBudget(*budgetPath, allows)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fgslint:", err)
			os.Exit(2)
		}
		for _, line := range overruns {
			fmt.Fprintln(os.Stderr, "fgslint:", line)
		}
		if len(overruns) > 0 {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeBudgetFile persists the allow counts, keys sorted, one per line.
func writeBudgetFile(path string, allows map[string]int) error {
	data, err := json.MarshalIndent(allows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkBudget compares the tree's allow counts against the budget file and
// returns one message per overrun. Counts under budget are reported on
// stderr as a hint to ratchet the budget down, but do not fail.
func checkBudget(path string, allows map[string]int) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("allow budget: %w", err)
	}
	budget := make(map[string]int)
	if err := json.Unmarshal(data, &budget); err != nil {
		return nil, fmt.Errorf("allow budget %s: %w", path, err)
	}
	names := make([]string, 0, len(allows))
	for name := range allows {
		names = append(names, name)
	}
	sort.Strings(names)
	var overruns []string
	for _, name := range names {
		if n, b := allows[name], budget[name]; n > b {
			overruns = append(overruns, fmt.Sprintf(
				"allow budget exceeded for %s: %d //lint:allow directive(s), budget %d — remove the new allow or consciously raise %s in the same change",
				name, n, b, path))
		}
	}
	budgetNames := make([]string, 0, len(budget))
	for name := range budget {
		budgetNames = append(budgetNames, name)
	}
	sort.Strings(budgetNames)
	for _, name := range budgetNames {
		if n, b := allows[name], budget[name]; n < b {
			fmt.Fprintf(os.Stderr, "fgslint: note: %s allow count (%d) is under budget (%d); ratchet %s down\n", name, n, b, path)
		}
	}
	return overruns, nil
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
