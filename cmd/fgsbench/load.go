package main

// The load-driver mode: fgsbench -load <url> drives a seeded mix of
// summarize / view / workload / stats / update traffic at a running fgsd and
// reports per-endpoint latency percentiles, status splits, cache hits, and
// the server-side stage breakdown (parsed from Server-Timing response
// headers). Each request carries a W3C traceparent generated from the same
// seeded rand as the mix, so a request in the report can be matched to the
// server's logs and flight recorder by trace ID. The mix is deterministic
// per (seed, concurrency): each client goroutine owns a rand seeded from the
// base seed and its index, so two runs against the same server issue the
// same request multiset.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cwru-db/fgs/internal/obs"
)

type loadConfig struct {
	BaseURL     string
	Requests    int
	Concurrency int
	Seed        int64
}

// loadSample is one completed request as seen by a client goroutine.
type loadSample struct {
	endpoint string
	status   int
	cacheHit bool
	latency  time.Duration
	err      error
	// stages is the server-side per-stage breakdown from the Server-Timing
	// response header (nil when the server has tracing disabled).
	stages map[string]time.Duration
	// readsInFlight is the number of read requests in flight when this
	// request started — recorded for updates, to surface writer starvation:
	// an update that is slow only while readers saturate the engine is the
	// signature of reads blocking the write path.
	readsInFlight int64
}

// inflightReads counts read requests currently in flight across all client
// goroutines (updates excluded).
var inflightReads atomic.Int64

// viewPatterns are the pattern texts the view traffic cycles through; they
// match the demo LKI schema but are harmless 0-count queries elsewhere.
var viewPatterns = []string{
	"n 0 user\nf 0",
	"n 0 user\nn 1 user\ne 1 0 corev\nf 0",
	"n 0 user\nn 1 org\ne 0 1 employed\nf 0",
}

// nextRequest picks one weighted request from the mix: 35% summarize,
// 10% summarize-k, 20% view, 5% workload, 20% stats, 10% update.
func nextRequest(r *rand.Rand) (endpoint, method, path string, body any) {
	switch p := r.Intn(100); {
	case p < 35:
		return "summarize", http.MethodPost, "/v1/summarize",
			map[string]int{"n": 5 + 5*r.Intn(4)}
	case p < 45:
		return "summarize-k", http.MethodPost, "/v1/summarize-k",
			map[string]int{"k": 1 + r.Intn(3), "n": 10}
	case p < 65:
		return "view", http.MethodPost, "/v1/view",
			map[string]string{"pattern": viewPatterns[r.Intn(len(viewPatterns))]}
	case p < 70:
		return "workload", http.MethodPost, "/v1/workload", nil
	case p < 90:
		return "stats", http.MethodGet, "/v1/stats", nil
	default:
		// Writes between low-id nodes: inserts may be duplicates and deletes
		// may miss (both answered 400 with applied=0) — that is part of the
		// mix, exercising the no-op-write path without growing the graph
		// without bound.
		change := map[string]any{"from": r.Intn(64), "to": r.Intn(64), "label": "corev"}
		if r.Intn(2) == 0 {
			return "update", http.MethodPost, "/v1/update", map[string]any{"insert": []any{change}}
		}
		return "update", http.MethodPost, "/v1/update", map[string]any{"delete": []any{change}}
	}
}

// runLoad sends cfg.Requests requests from cfg.Concurrency goroutines and
// writes the per-endpoint report to w.
func runLoad(w io.Writer, cfg loadConfig) error {
	if cfg.Requests <= 0 || cfg.Concurrency <= 0 {
		return fmt.Errorf("load: requests and concurrency must be positive")
	}
	client := &http.Client{Timeout: 60 * time.Second}
	if _, err := client.Get(cfg.BaseURL + "/healthz"); err != nil {
		return fmt.Errorf("load: target not reachable: %w", err)
	}

	samples := make([]loadSample, cfg.Requests)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Concurrency; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= cfg.Requests {
					return
				}
				samples[i] = doRequest(client, cfg.BaseURL, rng)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(w, samples, elapsed)
	return nil
}

func doRequest(client *http.Client, base string, rng *rand.Rand) loadSample {
	endpoint, method, path, body := nextRequest(rng)
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return loadSample{endpoint: endpoint, err: err}
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return loadSample{endpoint: endpoint, err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("traceparent", nextTraceparent(rng))
	isWrite := endpoint == "update"
	var overlapped int64
	if isWrite {
		overlapped = inflightReads.Load()
	} else {
		inflightReads.Add(1)
		defer inflightReads.Add(-1)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(t0)
	if err != nil {
		return loadSample{endpoint: endpoint, latency: lat, err: err, readsInFlight: overlapped}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return loadSample{
		endpoint:      endpoint,
		status:        resp.StatusCode,
		cacheHit:      resp.Header.Get("X-Fgs-Cache") == "hit",
		latency:       lat,
		readsInFlight: overlapped,
		stages:        obs.ParseServerTiming(resp.Header.Get("Server-Timing")),
	}
}

// nextTraceparent mints a W3C traceparent from the client goroutine's seeded
// rand, so the trace IDs a run sends — and therefore what lands in the
// server's logs, exemplars, and flight recorder — are reproducible per
// (seed, concurrency). Zero IDs are invalid per the spec; nudge them.
func nextTraceparent(rng *rand.Rand) string {
	hi, lo, span := rng.Uint64(), rng.Uint64(), rng.Uint64()
	if hi|lo == 0 {
		lo = 1
	}
	if span == 0 {
		span = 1
	}
	return fmt.Sprintf("00-%016x%016x-%016x-01", hi, lo, span)
}

// report aggregates samples by endpoint and prints the load table.
func report(w io.Writer, samples []loadSample, elapsed time.Duration) {
	type agg struct {
		reqs, ok, clientErr, serverErr, netErr, cacheHits int
		lats                                              []time.Duration
	}
	byEndpoint := map[string]*agg{}
	var order []string
	for _, s := range samples {
		a := byEndpoint[s.endpoint]
		if a == nil {
			a = &agg{}
			byEndpoint[s.endpoint] = a
			order = append(order, s.endpoint)
		}
		a.reqs++
		switch {
		case s.err != nil:
			a.netErr++
		case s.status >= 500:
			a.serverErr++
		case s.status >= 400:
			a.clientErr++
		default:
			a.ok++
		}
		if s.cacheHit {
			a.cacheHits++
		}
		a.lats = append(a.lats, s.latency)
	}
	sort.Strings(order)

	fmt.Fprintf(w, "load: %d requests in %v (%.1f req/s)\n\n",
		len(samples), elapsed.Round(time.Millisecond),
		float64(len(samples))/elapsed.Seconds())
	fmt.Fprintf(w, "%-12s %6s %6s %5s %5s %5s %6s %9s %9s %9s %9s %9s\n",
		"endpoint", "reqs", "2xx", "4xx", "5xx", "net", "cache", "p50", "p95", "p99", "p99.9", "max")
	fmt.Fprintln(w, strings.Repeat("-", 104))
	for _, e := range order {
		a := byEndpoint[e]
		sort.Slice(a.lats, func(i, j int) bool { return a.lats[i] < a.lats[j] })
		fmt.Fprintf(w, "%-12s %6d %6d %5d %5d %5d %6d %9v %9v %9v %9v %9v\n",
			e, a.reqs, a.ok, a.clientErr, a.serverErr, a.netErr, a.cacheHits,
			permille(a.lats, 500), permille(a.lats, 950), permille(a.lats, 990),
			permille(a.lats, 999), permille(a.lats, 1000))
	}
	reportStages(w, samples)
	reportStarvation(w, samples)
}

// loadStageNames is the column order of the server-side breakdown — the
// pipeline order of fgsd's request stages.
var loadStageNames = []string{"cache", "admission", "pin", "compute", "encode"}

// reportStages prints the server-side stage breakdown: the mean time each
// endpoint spent per pipeline stage, as reported by the server itself via
// Server-Timing. Client latency minus the stage sum is network + queueing
// outside the traced stages. Silent when the server sent no stage timings
// (tracing disabled).
func reportStages(w io.Writer, samples []loadSample) {
	type agg struct {
		n      int
		stages map[string]time.Duration
	}
	byEndpoint := map[string]*agg{}
	var order []string
	for _, s := range samples {
		if len(s.stages) == 0 {
			continue
		}
		a := byEndpoint[s.endpoint]
		if a == nil {
			a = &agg{stages: map[string]time.Duration{}}
			byEndpoint[s.endpoint] = a
			order = append(order, s.endpoint)
		}
		a.n++
		for name, d := range s.stages {
			a.stages[name] += d
		}
	}
	if len(order) == 0 {
		return
	}
	sort.Strings(order)

	fmt.Fprintf(w, "\nserver-side stage breakdown (mean per request, from Server-Timing):\n")
	fmt.Fprintf(w, "%-12s %6s", "endpoint", "reqs")
	for _, st := range loadStageNames {
		fmt.Fprintf(w, " %10s", st)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 19+11*len(loadStageNames)))
	for _, e := range order {
		a := byEndpoint[e]
		fmt.Fprintf(w, "%-12s %6d", e, a.n)
		for _, st := range loadStageNames {
			mean := time.Duration(0)
			if a.n > 0 {
				mean = a.stages[st] / time.Duration(a.n)
			}
			fmt.Fprintf(w, " %10v", mean.Round(10*time.Microsecond))
		}
		fmt.Fprintln(w)
	}
}

// reportStarvation summarizes write latency as a function of concurrent
// read pressure: the worst update latency observed while at least one read
// was in flight, against the worst with no reads in flight. A large gap is
// the signature of the locked read path (readers holding the lock starve
// the writer); the MVCC path keeps the two close.
func reportStarvation(w io.Writer, samples []loadSample) {
	var contended, uncontended []loadSample
	for _, s := range samples {
		if s.endpoint != "update" || s.err != nil {
			continue
		}
		if s.readsInFlight > 0 {
			contended = append(contended, s)
		} else {
			uncontended = append(uncontended, s)
		}
	}
	if len(contended) == 0 {
		return
	}
	maxOf := func(ss []loadSample) time.Duration {
		var m time.Duration
		for _, s := range ss {
			if s.latency > m {
				m = s.latency
			}
		}
		return m.Round(10 * time.Microsecond)
	}
	fmt.Fprintf(w, "\nwriter starvation: %d/%d updates overlapped in-flight reads; max update latency %v under read load",
		len(contended), len(contended)+len(uncontended), maxOf(contended))
	if len(uncontended) > 0 {
		fmt.Fprintf(w, " vs %v unloaded", maxOf(uncontended))
	}
	fmt.Fprintln(w)
}

// permille returns the p-th permille (p50 = 500, p99.9 = 999) of sorted
// latencies, rounded for display.
func permille(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)-1)*p/1000 + 1
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1].Round(10 * time.Microsecond)
}
