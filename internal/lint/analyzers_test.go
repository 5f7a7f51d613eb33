package lint

import "testing"

func TestMapOrder(t *testing.T) {
	runFixture(t, MapOrder, "maporder")
}

func TestDetRand(t *testing.T) {
	// One deterministic package (flagged), the exempt generator package
	// (clean), and the obs package (rand flagged, time.Now sanctioned) in the
	// same run.
	runFixture(t, DetRand, "detrand/internal/core", "detrand/internal/gen", "detrand/internal/obs")
}

func TestNoPanic(t *testing.T) {
	// A library package (flagged) and a main package (exempt) in the same run.
	runFixture(t, NoPanic, "nopanic", "nopanic/cmdfixture", "nopanic/httphandler")
}

func TestPairDiscipline(t *testing.T) {
	runFixture(t, PairDiscipline, "pairdiscipline")
}

func TestFrozenView(t *testing.T) {
	runFixture(t, FrozenView, "frozenview")
}

func TestErrDrop(t *testing.T) {
	// A library package (flagged) and a main package (exempt) in the same run.
	runFixture(t, ErrDrop, "errdrop", "errdrop/cmdfixture")
}

func TestCtxPoll(t *testing.T) {
	// The server package (in scope) and a library package (out of scope).
	runFixture(t, CtxPoll, "ctxpoll/internal/server", "ctxpoll/internal/other")
}

func TestAllowDirective(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//lint:allow maporder keys feed a set", []string{"maporder"}},
		{"// lint:allow detrand timing only", []string{"detrand"}},
		{"//lint:allow nopanic,detrand shared reason", []string{"nopanic", "detrand"}},
		{"//lint:allow", nil},
		{"// just a comment", nil},
		{"//lint:disable maporder", nil},
	}
	for _, c := range cases {
		got := allowDirective(c.text)
		if len(got) != len(c.want) {
			t.Errorf("allowDirective(%q) = %v, want %v", c.text, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("allowDirective(%q) = %v, want %v", c.text, got, c.want)
			}
		}
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("all")
	if err != nil || len(all) != 7 {
		t.Fatalf("ByName(all) = %d analyzers, err %v; want 7, nil", len(all), err)
	}
	two, err := ByName("maporder, detrand")
	if err != nil || len(two) != 2 || two[0] != MapOrder || two[1] != DetRand {
		t.Fatalf("ByName(maporder, detrand) = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) succeeded, want error")
	}
}

func TestIsDeterministicPkg(t *testing.T) {
	cases := map[string]bool{
		"github.com/cwru-db/fgs/internal/core":      true,
		"github.com/cwru-db/fgs/internal/mining":    true,
		"detrand/internal/experiments":              true,
		"internal/pattern":                          true,
		"github.com/cwru-db/fgs/internal/obs":       true,
		"github.com/cwru-db/fgs/internal/gen":       false,
		"github.com/cwru-db/fgs/internal/corestuff": false,
		"github.com/cwru-db/fgs/internal/graph":     false,
	}
	if !isObsPkg("github.com/cwru-db/fgs/internal/obs") || isObsPkg("github.com/cwru-db/fgs/internal/core") {
		t.Error("isObsPkg misclassifies the sanctioned clock package")
	}
	for path, want := range cases {
		if got := isDeterministicPkg(path); got != want {
			t.Errorf("isDeterministicPkg(%q) = %v, want %v", path, got, want)
		}
	}
}
