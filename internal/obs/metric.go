package obs

import (
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is an atomic, allocation-free, monotonically increasing count.
// The zero value is ready to use; embed it by value in the component it
// instruments.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HistNumBuckets is the number of finite histogram buckets; bucket i counts
// observations <= 2^i, and one extra overflow bucket catches the rest.
const HistNumBuckets = 16

// Histogram is an allocation-free histogram over int64 observations with
// fixed power-of-two bucket bounds 1, 2, 4, ..., 2^15, +Inf. The zero value
// is ready to use and safe for concurrent Observe. It keeps no separate
// count: a snapshot taken during concurrent Observe calls derives Count from
// the buckets it read, so the +Inf bucket always equals Count.
type Histogram struct {
	sum     atomic.Int64
	buckets [HistNumBuckets + 1]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.sum.Add(v)
	h.buckets[HistBucketOf(v)].Add(1)
}

// HistBucketOf returns the bucket index an observation lands in: the
// smallest i with v <= 2^i, saturating at the overflow bucket.
func HistBucketOf(v int64) int {
	idx := 0
	if v > 1 {
		idx = bits.Len64(uint64(v - 1)) // smallest i with v <= 2^i
	}
	if idx > HistNumBuckets {
		idx = HistNumBuckets
	}
	return idx
}

// Snapshot returns the histogram's current cumulative state.
func (h *Histogram) Snapshot() HistValue {
	var out HistValue
	out.Sum = h.sum.Load()
	out.Buckets = make([]int64, HistNumBuckets+1)
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out.Buckets[i] = cum
	}
	out.Count = cum
	return out
}

// HistValue is an exported histogram snapshot: cumulative counts per upper
// bound (the last entry is the +Inf bucket and equals Count).
type HistValue struct {
	Count   int64
	Sum     int64
	Buckets []int64
}

// HistBound returns the upper bound of finite bucket i (2^i).
func HistBound(i int) int64 { return 1 << i }

// Kind classifies a metric series for the exporters.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// Label is one key=value dimension on a metric series.
type Label struct {
	Key string
	Val string
}

// Exemplar is one concrete observation attached to a histogram bucket —
// typically a trace ID plus the observed value, so an outlier bucket in the
// export links back to one inspectable request (OpenMetrics exemplars).
type Exemplar struct {
	Labels []Label
	Value  float64
}

// Metric is one exported series: a snapshot, not a live instrument.
type Metric struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []Label
	// Value carries counter and gauge readings.
	Value float64
	// Hist carries histogram readings (Kind == KindHistogram).
	Hist *HistValue
	// Exemplars, when non-nil, carries one optional exemplar per histogram
	// bucket (parallel to Hist.Buckets; nil entries = no exemplar).
	Exemplars []*Exemplar
}

// seriesKey renders the identity of a metric series (name plus sorted
// labels) for merging and ordering.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Val)
		b.WriteByte('}')
	}
	return b.String()
}

// Source is anything that can snapshot its instruments into metric series.
// Instrumented components (the E_v^r cache, the matcher, the mining engine)
// implement it and are registered once at creation.
type Source interface {
	ObsMetrics() []Metric
}

// Registry collects metric sources plus ad-hoc counters and gathers them
// into one deterministic snapshot. Duplicate series — e.g. per-run caches
// registered by successive pipeline runs — are merged: counters and
// histograms sum, gauges keep the last registered source's reading.
//
// All methods are safe for concurrent use and nil-safe, so instrumentation
// sites never branch on whether observability is enabled.
type Registry struct {
	mu      sync.Mutex
	sources []Source
	adhoc   map[string]*Metric
	order   []string // adhoc insertion order, for reproducible gathers
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{adhoc: make(map[string]*Metric)} }

// Register adds a metrics source. Nil-safe on both sides.
func (r *Registry) Register(s Source) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	r.sources = append(r.sources, s)
	r.mu.Unlock()
}

// Add accumulates n into the ad-hoc counter series (name, labels) — the
// reporting path for transient counters that live in local variables (the
// greedy cover loop, the fair selector). Nil-safe.
func (r *Registry) Add(name, help string, labels []Label, n int64) {
	if r == nil {
		return
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	m, ok := r.adhoc[key]
	if !ok {
		m = &Metric{Name: name, Help: help, Kind: KindCounter, Labels: append([]Label(nil), labels...)}
		r.adhoc[key] = m
		r.order = append(r.order, key)
	}
	m.Value += float64(n)
	r.mu.Unlock()
}

// Gather snapshots every source and ad-hoc series, merges duplicates, and
// returns the result sorted by series identity. Nil-safe (returns nil).
func (r *Registry) Gather() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	sources := append([]Source(nil), r.sources...)
	adhoc := make([]Metric, 0, len(r.order))
	for _, key := range r.order {
		adhoc = append(adhoc, *r.adhoc[key])
	}
	r.mu.Unlock()

	var raw []Metric
	for _, s := range sources {
		raw = append(raw, s.ObsMetrics()...)
	}
	raw = append(raw, adhoc...)
	return MergeMetrics(raw)
}

// MergeMetrics combines duplicate series (counters and histograms sum,
// gauges last-wins) and sorts the result by series identity.
func MergeMetrics(raw []Metric) []Metric {
	byKey := make(map[string]int, len(raw))
	var out []Metric
	for _, m := range raw {
		key := seriesKey(m.Name, m.Labels)
		i, ok := byKey[key]
		if !ok {
			byKey[key] = len(out)
			cp := m
			cp.Labels = append([]Label(nil), m.Labels...)
			if m.Hist != nil {
				h := *m.Hist
				h.Buckets = append([]int64(nil), m.Hist.Buckets...)
				cp.Hist = &h
			}
			if m.Exemplars != nil {
				cp.Exemplars = append([]*Exemplar(nil), m.Exemplars...)
			}
			out = append(out, cp)
			continue
		}
		switch m.Kind {
		case KindCounter:
			out[i].Value += m.Value
		case KindGauge:
			out[i].Value = m.Value
		case KindHistogram:
			if m.Hist != nil && out[i].Hist != nil {
				out[i].Hist.Count += m.Hist.Count
				out[i].Hist.Sum += m.Hist.Sum
				for b := range out[i].Hist.Buckets {
					if b < len(m.Hist.Buckets) {
						out[i].Hist.Buckets[b] += m.Hist.Buckets[b]
					}
				}
			}
			// Exemplars: the later source wins per bucket (it is the more
			// recent observation).
			for b, ex := range m.Exemplars {
				if ex == nil {
					continue
				}
				if out[i].Exemplars == nil {
					out[i].Exemplars = make([]*Exemplar, len(m.Exemplars))
				}
				if b < len(out[i].Exemplars) {
					out[i].Exemplars[b] = ex
				}
			}
		}
		if out[i].Help == "" {
			out[i].Help = m.Help
		}
	}
	sort.Slice(out, func(a, b int) bool {
		return seriesKey(out[a].Name, out[a].Labels) < seriesKey(out[b].Name, out[b].Labels)
	})
	return out
}
