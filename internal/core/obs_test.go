package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/cwru-db/fgs/internal/obs"
)

// TestObserverInertForSummaries is the observability safety property: running
// any algorithm with a full collector attached (spans + registry + frozen
// clock) must produce a byte-identical summary to running with collection
// off. The observer may only ever read what happens, never steer it.
func TestObserverInertForSummaries(t *testing.T) {
	type algo struct {
		name string
		run  func(t *testing.T, o *obs.Observer) []byte
	}
	algos := []algo{
		{"apxfgs", func(t *testing.T, o *obs.Observer) []byte {
			g, groups, util := talentFixture(t)
			cfg := defaultCfg()
			cfg.Obs = o
			s, err := APXFGS(g, groups, util, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.WriteJSON(&buf, g); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
		{"kapxfgs", func(t *testing.T, o *obs.Observer) []byte {
			g, groups, util := talentFixture(t)
			cfg := defaultCfg()
			cfg.K = 3
			cfg.Obs = o
			s, err := KAPXFGS(g, groups, util, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.WriteJSON(&buf, g); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
		{"online", func(t *testing.T, o *obs.Observer) []byte {
			g, groups, util := talentFixture(t)
			cfg := defaultCfg()
			cfg.K = 4
			cfg.Obs = o
			on := NewOnline(g, groups, util, cfg)
			on.ProcessAll(groups.All())
			s, err := on.Finish()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.WriteJSON(&buf, g); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
	}
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			off := a.run(t, nil)
			on := a.run(t, obs.NewObserver(obs.NewFrozen(time.Unix(0, 0))))
			if !bytes.Equal(off, on) {
				t.Fatalf("summary changed when tracing was enabled:\noff: %s\non:  %s", off, on)
			}
		})
	}
}

// TestStatsUnderFrozenClock checks that core.Stats times phases with the
// run's clock (the attached trace's frozen clock here, which the algorithms
// cannot tick), and that phases appear in execution order.
func TestStatsUnderFrozenClock(t *testing.T) {
	g, groups, util := talentFixture(t)
	cfg := defaultCfg()
	cfg.Obs = obs.NewObserver(obs.NewFrozen(time.Unix(100, 0)))
	s, err := APXFGS(g, groups, util, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Stats.Phases) == 0 {
		t.Fatal("no phases recorded")
	}
	wantOrder := []string{PhaseSelect, PhaseMine, PhaseSummarize}
	for i, ph := range s.Stats.Phases {
		if i >= len(wantOrder) || ph.Name != wantOrder[i] {
			t.Fatalf("phase order %v, want prefix of %v", s.Stats.Phases, wantOrder)
		}
		if ph.Count != 1 {
			t.Fatalf("phase %s ran %d times, want 1", ph.Name, ph.Count)
		}
		// The frozen clock never advances, so every span is zero-length.
		if ph.Time != 0 {
			t.Fatalf("phase %s duration %v under a frozen clock", ph.Name, ph.Time)
		}
	}
	if s.Stats.Candidates == 0 {
		t.Fatal("candidate count not recorded")
	}
	if got := s.Stats.Total(); got != 0 {
		t.Fatalf("Total() = %v under a frozen clock", got)
	}
}

// TestAttachedTraceShape pins the spans an attached trace gets from the
// algorithms, which perfbench's applyPhases and the CLIs' Chrome traces
// read: a maintainer records one incfgs root whose finished children are its
// phases, as many per name as Stats counts, and APXFGS annotates its mine
// and summarize spans with the candidate and pattern counts.
func TestAttachedTraceShape(t *testing.T) {
	g, groups, util := talentFixture(t)
	fresh := g.AddNode("user", nil)
	cfg := defaultCfg()
	cfg.Obs = obs.NewObserver(obs.NewFrozen(time.Unix(0, 0)))
	m, s := NewMaintainer(g, groups, util, cfg)
	edge := []EdgeUpdate{{From: fresh, To: s.Covered[0], Label: "recommend"}}
	for i := 0; i < 10; i++ {
		d := Delta{Insert: edge}
		if i%2 == 1 {
			d = Delta{Delete: edge}
		}
		var err error
		if s, _, err = m.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	recs := cfg.Obs.Trace.Records()
	root := int32(-1)
	for i, r := range recs {
		if r.Parent >= 0 {
			continue
		}
		if r.Name != "incfgs" || root >= 0 {
			t.Fatalf("root span %d is %q; want one incfgs root", i, r.Name)
		}
		root = int32(i)
	}
	if root < 0 {
		t.Fatal("no incfgs root span")
	}
	spans := map[string]int{}
	for _, r := range recs {
		if r.Parent != root || !r.Done {
			continue
		}
		switch r.Name {
		case PhaseSelect, PhaseMine, PhaseSummarize:
			spans[r.Name]++
		default:
			t.Fatalf("incfgs child span %q", r.Name)
		}
	}
	stats := map[string]int{}
	for _, ph := range s.Stats.Phases {
		stats[ph.Name] = ph.Count
	}
	if !reflect.DeepEqual(spans, stats) {
		t.Fatalf("incfgs child spans %v, Stats phases %v", spans, stats)
	}

	g, groups, util = talentFixture(t)
	cfg = defaultCfg()
	cfg.Obs = obs.NewObserver(obs.NewFrozen(time.Unix(0, 0)))
	if _, err := APXFGS(g, groups, util, cfg); err != nil {
		t.Fatal(err)
	}
	args := map[string][]string{}
	for _, r := range cfg.Obs.Trace.Records() {
		for _, a := range r.Args {
			args[r.Name] = append(args[r.Name], a.Key)
		}
	}
	want := map[string][]string{PhaseMine: {"candidates"}, PhaseSummarize: {"patterns"}}
	if !reflect.DeepEqual(args, want) {
		t.Fatalf("apxfgs span args %v, want %v", args, want)
	}
}
