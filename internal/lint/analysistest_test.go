package lint

// runFixture is fgslint's stand-in for golang.org/x/tools'
// analysistest.Run: it loads fixture packages from testdata/src, runs one
// analyzer, and compares the diagnostics against `// want "regexp"`
// comments in the fixture sources. Every want must be matched by exactly one
// diagnostic on its line, and every diagnostic must be expected.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	wantRe  = regexp.MustCompile(`//\s*want\s+(.+)$`)
	quoteRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")
)

type want struct {
	re      *regexp.Regexp
	matched bool
}

// runFixture loads each dir (relative to testdata/src) as a package and
// checks analyzer a's findings against the fixtures' want comments.
func runFixture(t *testing.T, a *Analyzer, dirs ...string) {
	t.Helper()
	root := filepath.Join("testdata", "src")
	loader, err := NewTreeLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := loader.LoadDir(filepath.Join(root, filepath.FromSlash(d)))
		if err != nil {
			t.Fatalf("loading fixture %s: %v", d, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := RunAnalyzers(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, pkgs)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	keys := make([]string, 0, len(wants))
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, w := range wants[key] {
			if !w.matched {
				t.Errorf("%s: no diagnostic matched want %q", key, w.re)
			}
		}
	}
}

// collectWants scans the fixture sources for want comments, keyed by
// "filename:line".
func collectWants(t *testing.T, pkgs []*Package) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			name := pkg.Fset.File(f.Pos()).Name()
			if seen[name] {
				continue
			}
			seen[name] = true
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				m := wantRe.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				key := fmt.Sprintf("%s:%d", name, i+1)
				for _, q := range quoteRe.FindAllStringSubmatch(m[1], -1) {
					expr := q[1]
					if q[2] != "" {
						expr = q[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, expr, err)
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	return wants
}
