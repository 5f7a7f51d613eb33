package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cwru-db/fgs/internal/obs"
)

// call is one request the benchmark sends and what came back. Latency runs
// from due: the scheduled instant in an open loop, the send instant in a
// closed loop, so a stall also charges the wait it imposes on later arrivals.
//
// A call keeps only what the correctness gate reads: serve drops the request
// body once it is sent, and keeps the response body of summaries and updates
// alone, so the harness holds little memory in the timed window.
type call struct {
	class  string // endpoint: summarize, summarize-k, view, update, stats
	method string
	path   string
	body   string // cleared once sent

	// Request parameters the correctness gate needs.
	r, k, n int
	utility string
	changes int // edges an update batch changes when it applies in full

	due, sent, done time.Time
	warm            bool // due before the timed window opened
	censored        bool // still running when the benchmark stopped waiting

	status   int
	resp     []byte
	stages   map[string]time.Duration // parsed Server-Timing
	cacheHit bool
}

func (c *call) latency() time.Duration { return c.done.Sub(c.due) }

// describe names a request in gate messages, from the parameters the call
// keeps once its body is dropped.
func (c *call) describe() string {
	switch {
	case isSummarize(c):
		return fmt.Sprintf("%s r=%d k=%d n=%d utility=%s", c.class, c.r, c.k, c.n, c.utility)
	case c.class == "update":
		return fmt.Sprintf("update of %d edges", c.changes)
	}
	return c.class
}

// serve sends c through the handler in-process, as fgsbench -scale-bench
// does, so the numbers are engine numbers rather than socket numbers.
func serve(h http.Handler, c *call) {
	var req *http.Request
	if c.body != "" {
		req = httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(c.method, c.path, nil)
	}
	c.body = ""
	rec := httptest.NewRecorder()
	c.sent = time.Now()
	h.ServeHTTP(rec, req)
	c.done = time.Now()
	c.status = rec.Code
	if isSummarize(c) || c.class == "update" {
		c.resp = rec.Body.Bytes()
	}
	c.stages = obs.ParseServerTiming(rec.Header().Get("Server-Timing"))
	c.cacheHit = rec.Header().Get("X-Fgs-Cache") == "hit"
}

// window is the timed part of a run: requests due in [start, end) count;
// earlier ones are warm-up.
type window struct{ start, end time.Time }

// collector gathers finished calls from concurrent senders until closed;
// calls that finish afterwards are dropped, and the ones still in flight at
// close are reported as censored copies.
type collector struct {
	mu       sync.Mutex
	closed   bool
	done     []*call
	inflight map[*call]struct{}
}

func newCollector() *collector { return &collector{inflight: make(map[*call]struct{})} }

func (col *collector) begin(c *call) {
	col.mu.Lock()
	col.inflight[c] = struct{}{}
	col.mu.Unlock()
}

func (col *collector) finish(c *call) {
	col.mu.Lock()
	defer col.mu.Unlock()
	if col.closed {
		return
	}
	delete(col.inflight, c)
	col.done = append(col.done, c)
}

// close stops collection at cutoff and returns the calls in due order. A
// request still in flight becomes a censored copy whose latency is a lower
// bound (due → cutoff); the original keeps running but is never read again.
func (col *collector) close(cutoff time.Time) []*call {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.closed = true
	out := append([]*call(nil), col.done...)
	for c := range col.inflight {
		out = append(out, &call{
			class: c.class, method: c.method, path: c.path,
			r: c.r, k: c.k, n: c.n, utility: c.utility, changes: c.changes,
			due: c.due, sent: c.due, done: cutoff, warm: c.warm, censored: true,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due.Before(out[j].due) })
	return out
}

// pending reports how many calls are still in flight.
func (col *collector) pending() int {
	col.mu.Lock()
	defer col.mu.Unlock()
	return len(col.inflight)
}

// awaitDrain waits until nothing is in flight or the deadline passes.
func (col *collector) awaitDrain(deadline time.Time) {
	for col.pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

// closedLoop starts clients that each send their next request when the
// last one returns, drawing requests from next (which must be safe for
// concurrent use), until the window ends. A request is due when next has
// built it, so building it is not charged to the engine. gaps receives each
// client's response-to-next-send delay, the closed loop's generator lag.
//
// The window's end stops the clients, and nothing waits for them: the
// collector decides what counts, and a client stuck in a request the engine
// cannot cancel ends with the process.
func closedLoop(h http.Handler, clients int, next func() *call, w window, col *collector, gaps *lagLog) {
	for i := 0; i < clients; i++ {
		go func() {
			var last time.Time
			for {
				c := next()
				if c == nil {
					return
				}
				now := time.Now()
				if !now.Before(w.end) {
					return
				}
				c.due = now
				c.warm = now.Before(w.start)
				if !last.IsZero() && !c.warm {
					gaps.add(now.Sub(last))
				}
				col.begin(c)
				serve(h, c)
				last = c.done
				col.finish(c)
			}
		}()
	}
}

// openLoop sends each scheduled call at its due time, whatever the state of
// earlier ones, and records how late each send went out. The schedule's end
// stops the sender; like closedLoop's clients, requests still in flight are
// left to the collector.
func openLoop(h http.Handler, sched []*call, col *collector, lags *lagLog) {
	go func() {
		for _, c := range sched {
			if d := time.Until(c.due); d > 0 {
				time.Sleep(d)
			}
			if !c.warm {
				lags.add(time.Since(c.due))
			}
			col.begin(c)
			go func(c *call) {
				serve(h, c)
				col.finish(c)
			}(c)
		}
	}()
}

// lagLog collects generator lateness samples from concurrent senders.
type lagLog struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *lagLog) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

func (l *lagLog) p99Ms() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return quantileMs(append([]time.Duration(nil), l.ds...), 0.99)
}

// heapPeak samples the heap high-water mark until stopped. It reads
// runtime/metrics, which does not stop the world. runtime.ReadMemStats
// does, so sampling with it would pause the engine twenty times a second,
// and each pause also waits out any vCPU the host has descheduled.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapPeak(every time.Duration) *heapPeak {
	p := &heapPeak{stop: make(chan struct{})}
	p.sample()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.sample()
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// heapObjects is runtime/metrics' name for MemStats.HeapAlloc: the bytes of
// heap objects, live or not yet swept.
const heapObjects = "/memory/classes/heap/objects:bytes"

func (p *heapPeak) sample() {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > p.peak.Load() {
		p.peak.Store(v)
	}
}

// end stops sampling and returns the peak in MB.
func (p *heapPeak) end() float64 {
	close(p.stop)
	p.wg.Wait()
	p.sample()
	return float64(p.peak.Load()) / (1 << 20)
}

// gcUse is the Go collector's work between two readings.
type gcUse struct {
	cycles       uint64
	gcCPU, total float64 // CPU seconds: the collector's, and GOMAXPROCS × wall time
}

var gcSamples = []string{"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

// readGC reads the collector's cumulative counters.
func readGC() gcUse {
	s := make([]metrics.Sample, len(gcSamples))
	for i, name := range gcSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return gcUse{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), total: s[2].Value.Float64()}
}

func (u gcUse) since(base gcUse) gcUse {
	return gcUse{u.cycles - base.cycles, u.gcCPU - base.gcCPU, u.total - base.total}
}

// cpuPct is the collector's share of the CPU time available to the process.
func (u gcUse) cpuPct() float64 { return 100 * ratio(u.gcCPU, u.total) }
