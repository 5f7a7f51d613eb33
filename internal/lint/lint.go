// Package lint is fgslint's analysis framework: a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis surface that the
// repository's determinism & safety analyzers run on. The toolchain ships
// everything needed (go/ast, go/types, go/importer), so the linter builds
// and runs offline with no module downloads.
//
// The contract it enforces is documented in DESIGN.md §7 ("Determinism
// contract & lint") and §12 ("Control-flow lint architecture"). The
// syntactic analyzers: summary content must be byte-identical across runs
// and worker counts, so map-iteration order must never reach an ordered
// sink (maporder), the deterministic packages must not consult global
// randomness or the wall clock (detrand), and library code must return
// errors instead of panicking (nopanic). The control-flow analyzers run on
// the in-package CFG/dataflow core (cfg.go, dataflow.go, taint.go): every
// acquire pairs with a release on every path (pairdiscipline), published
// MVCC read views are never mutated (frozenview), library packages never
// discard errors (errdrop), and unbounded server loops poll their context
// (ctxpoll). Copied locks are left to go vet's copylocks check.
//
// A finding can be suppressed with an escape-hatch comment on the flagged
// line or the line directly above it:
//
//	//lint:allow <analyzer> <why this is safe>
//
// The why-comment is mandatory by convention (and checked in code review,
// not by the tool): an allow without a reason is a future bug report.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single type-checked package
// via its Pass and reports findings through Pass.Report.
type Analyzer struct {
	Name string // short lower-case identifier, used in //lint:allow
	Doc  string // one-paragraph description of what it flags and why
	Run  func(*Pass) error
}

// Pass carries one package's worth of type-checked syntax to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string // import path as the loader resolved it
	TypesInfo *types.Info

	diags  *[]Diagnostic
	allows map[string]map[int][]string // filename -> line -> allowed analyzer names
}

// Diagnostic is one finding, positioned for editor navigation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Report records a finding unless an escape-hatch comment suppresses it.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowedAt(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// allowedAt reports whether a //lint:allow comment for this pass's analyzer
// sits on the finding's line or the line immediately above it.
func (p *Pass) allowedAt(pos token.Position) bool {
	lines := p.allows[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == p.Analyzer.Name || name == "all" {
				return true
			}
		}
	}
	return false
}

// allowDirective parses a comment's text as an escape hatch, returning the
// analyzer names it allows (nil if the comment is not a directive). Accepted
// forms: "//lint:allow name why..." and "// lint:allow name,other why...".
func allowDirective(text string) []string {
	body := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if !strings.HasPrefix(body, "lint:allow") {
		return nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(body, "lint:allow"))
	if rest == "" {
		return nil
	}
	// First whitespace-delimited field is the name list; everything after is
	// the why-comment.
	fields := strings.Fields(rest)
	var names []string
	for _, n := range strings.Split(fields[0], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// buildAllows indexes every escape-hatch comment in the files by line.
func buildAllows(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	allows := make(map[string]map[int][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := allowDirective(c.Text)
				if names == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if allows[pos.Filename] == nil {
					allows[pos.Filename] = make(map[int][]string)
				}
				allows[pos.Filename][pos.Line] = append(allows[pos.Filename][pos.Line], names...)
			}
		}
	}
	return allows
}

// RunAnalyzers runs every analyzer over every package and returns the
// combined findings sorted by position. Analyzer errors (not findings) abort.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows := buildAllows(pkg.Fset, pkg.Syntax)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				PkgPath:   pkg.Path,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
				allows:    allows,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full fgslint analyzer suite in stable order. The first
// three are the syntactic checks; the last four are the control-flow-aware
// suite built on the CFG/dataflow core (DESIGN.md §12).
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder, DetRand, NoPanic,
		PairDiscipline, FrozenView, ErrDrop, CtxPoll,
	}
}

// ByName resolves a comma-separated -checks list against All.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" || list == "all" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have maporder, detrand, nopanic, pairdiscipline, frozenview, errdrop, ctxpoll)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
