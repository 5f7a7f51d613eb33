// Package obs is the pipeline's zero-dependency observability layer:
// hierarchical spans over a deterministic-safe clock, atomic runtime
// counters and histograms, and exporters for the Chrome trace-event format
// and the Prometheus text format.
//
// Design constraints, in order:
//
//   - Provably inert for summary content. Nothing in this package feeds
//     algorithm decisions; spans and counters are reporting-only. The
//     determinism contract (DESIGN.md §7) is enforced by fgslint: obs is the
//     single package blessed to read the wall clock, and the deterministic
//     packages reach time only through the Clock interface.
//   - Near-zero cost when disabled. A nil *Trace yields inert spans (no
//     allocation, no clock reads); a nil *Registry ignores Register/Add; the
//     hot-path counters in mining/pattern are plain or atomic integer
//     increments on structs that exist anyway.
//   - Deterministic output. Exporters sort every series; with a Frozen
//     clock, the span tree itself is reproducible byte for byte.
//
// The pieces compose through Observer, the bundle the CLIs build from
// -fgs.trace / -fgs.metrics-out and hand to core.Config.Obs.
package obs

import (
	"errors"
	"io"
	"os"
	"sync"
	"time"
)

// Clock abstracts the wall clock so packages under the determinism contract
// never call time.Now directly. Real runs use System; tests that need
// reproducible span trees use Frozen.
type Clock interface {
	Now() time.Time
}

// System returns the process wall clock — the one sanctioned time.Now call
// site in the deterministic half of the module (fgslint's detrand analyzer
// exempts this package and flags time.Now everywhere else under contract).
func System() Clock { return systemClock{} }

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// Frozen is a manually advanced clock for tests: Now returns the same
// instant until Advance moves it. Safe for concurrent use.
type Frozen struct {
	mu sync.Mutex
	t  time.Time
}

// NewFrozen returns a frozen clock starting at the given instant.
func NewFrozen(start time.Time) *Frozen { return &Frozen{t: start} }

// Now returns the clock's current instant.
func (f *Frozen) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

// Advance moves the clock forward by d.
func (f *Frozen) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// Observer bundles the optional observability handles threaded through the
// pipeline. A nil *Observer — or a nil field — disables that signal; every
// accessor is nil-safe so call sites never branch.
type Observer struct {
	// Trace receives the pipeline's phase spans.
	Trace *Trace
	// Reg receives runtime counters from the instrumented components.
	Reg *Registry
	// Clock times whatever the observer is attached to: algorithm phases
	// (core.Stats), requests, figure runs (nil = System). An algorithm run
	// with a Trace attached times its phases with the trace's clock instead.
	Clock Clock
}

// NewObserver returns an observer with a fresh trace and registry on the
// given clock (nil = the system clock).
func NewObserver(clock Clock) *Observer {
	if clock == nil {
		clock = System()
	}
	return &Observer{Trace: NewTrace(clock), Reg: NewRegistry(), Clock: clock}
}

// GetTrace returns the observer's trace, or nil when disabled.
func (o *Observer) GetTrace() *Trace {
	if o == nil {
		return nil
	}
	return o.Trace
}

// GetReg returns the observer's registry, or nil when disabled.
func (o *Observer) GetReg() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// GetClock returns the observer's clock, defaulting to the system clock.
func (o *Observer) GetClock() Clock {
	if o == nil || o.Clock == nil {
		return System()
	}
	return o.Clock
}

// Register adds a metrics source to the observer's registry, if any.
func (o *Observer) Register(s Source) {
	if o != nil {
		o.Reg.Register(s)
	}
}

// Gather returns the registry's series plus the trace's per-phase metrics
// (fgs_phase_*): everything the observer collected, as metrics.
func (o *Observer) Gather() []Metric {
	return append(o.GetReg().Gather(), PhaseMetrics(o.GetTrace())...)
}

// Export writes what the observer collected: the trace as a Chrome trace to
// tracePath and the Gather series in Prometheus text to metricsPath (each
// skipped when its path is empty), and the series as a summary table to
// table when it is non-nil. It is the end-of-run export of the CLIs'
// -fgs.trace, -fgs.metrics-out and -fgs.obs-summary flags.
func (o *Observer) Export(tracePath, metricsPath string, table io.Writer) error {
	if tracePath != "" {
		if err := writeFile(tracePath, func(w io.Writer) error { return WriteChromeTrace(w, o.GetTrace()) }); err != nil {
			return err
		}
	}
	ms := o.Gather()
	if metricsPath != "" {
		if err := writeFile(metricsPath, func(w io.Writer) error { return WritePrometheus(w, ms) }); err != nil {
			return err
		}
	}
	if table != nil {
		_, err := io.WriteString(table, FormatTable(ms))
		return err
	}
	return nil
}

// writeFile creates path, fills it with write, and closes it; a failed
// write or close is returned (both, joined, when both fail).
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}
