package core

import (
	"time"

	"github.com/cwru-db/fgs/internal/obs"
)

// Span taxonomy (DESIGN.md §8): each algorithm run is a root span named
// after the algorithm, with one child span per pipeline phase.
const (
	PhaseSelect    = "select"
	PhaseMine      = "mine"
	PhaseSummarize = "summarize"
)

// runObs carries one algorithm run's observability state. The run keeps its
// own phase timings for Stats; spans are recorded only on a trace the caller
// attached, so a run without one (every per-request run in fgsd, the
// maintainer without -fgs.* flags) holds a fixed-size Stats however long it
// lives.
type runObs struct {
	clock  obs.Clock
	reg    *obs.Registry // nil when no collector is installed
	root   obs.Span      // inert without an attached trace
	phases []PhaseStat   // merged by name, in first-execution order
}

// startRun opens the root span for one algorithm run. Phases are timed with
// the attached trace's clock when there is one, so Stats and the exported
// spans read the same clock.
func startRun(o *obs.Observer, name string) *runObs {
	clock := o.GetClock()
	tr := o.GetTrace()
	if tr != nil {
		clock = tr.Clock()
	}
	return &runObs{clock: clock, reg: o.GetReg(), root: tr.Start(name)}
}

// phaseSpan is one open pipeline phase: its start on the run's clock and,
// on an attached trace, its child span of the run's root.
type phaseSpan struct {
	run   *runObs
	name  string
	start time.Time
	sp    obs.Span
}

// phase opens a pipeline phase.
func (r *runObs) phase(name string) phaseSpan {
	return phaseSpan{run: r, name: name, start: r.clock.Now(), sp: r.root.Child(name)}
}

// SetArg annotates the phase's span (no-op without an attached trace).
func (p phaseSpan) SetArg(key string, val int64) { p.sp.SetArg(key, val) }

// End closes the phase and adds its duration to the run's Stats.
func (p phaseSpan) End() {
	p.sp.End()
	p.run.add(p.name, p.run.clock.Now().Sub(p.start))
}

// add merges one completed phase into the run's timings by name.
func (r *runObs) add(name string, d time.Duration) {
	for i := range r.phases {
		if r.phases[i].Name == name {
			r.phases[i].Time += d
			r.phases[i].Count++
			return
		}
	}
	r.phases = append(r.phases, PhaseStat{Name: name, Time: d, Count: 1})
}

// register adds a metrics source to the run's registry (no-op when none).
func (r *runObs) register(s obs.Source) { r.reg.Register(s) }

// finish closes the root span and returns the run's Stats.
func (r *runObs) finish(candidates, windows int) Stats {
	r.root.End()
	return r.stats(candidates, windows)
}

// abort closes the root span without deriving Stats — for error returns
// that bail out before the run completes, so the root span is never left
// open in the trace (and in any caller-supplied Observer's export).
func (r *runObs) abort() { r.root.End() }

// stats returns a copy of the run's Stats without closing the root, so a
// summary's Stats stay fixed while the run goes on (streaming algorithms
// expose progress mid-run).
func (r *runObs) stats(candidates, windows int) Stats {
	return Stats{Phases: append([]PhaseStat(nil), r.phases...), Candidates: candidates, Windows: windows}
}
