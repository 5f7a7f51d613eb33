package main

// The workload driver behind -load and -scale-bench. Seeded client
// goroutines send a weighted request mix through a transport — an HTTP
// client against a running fgsd (-load), or the engine's handler called
// in-process (-scale-bench) — optionally beside writer goroutines that send
// back-to-back update batches. A run stops after a fixed number of client
// requests or after a duration, and one report covers both transports:
// per-endpoint status splits, cache hits and latency percentiles, the
// server-side stage breakdown parsed from Server-Timing response headers,
// and update latency under read load.
//
// Each goroutine owns a rand seeded from the base seed and its index, which
// draws its requests and mints each request's W3C traceparent, so a request
// in the report can be matched to the server's logs and flight recorder by
// trace ID. With a request count, every client sends a fixed share of it,
// so two runs with the same (seed, clients) issue the same request multiset.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cwru-db/fgs/internal/obs"
)

// request is one call the driver sends.
type request struct {
	endpoint, method, path, body string
}

// A transport sends one request carrying the given traceparent header and
// returns the response status and headers.
type transport func(rq request, traceparent string) (int, http.Header, error)

// httpTransport sends requests to the fgsd serving base over client.
func httpTransport(client *http.Client, base string) transport {
	return func(rq request, traceparent string) (int, http.Header, error) {
		req, err := http.NewRequest(rq.method, base+rq.path, strings.NewReader(rq.body))
		if err != nil {
			return 0, nil, err
		}
		if rq.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("traceparent", traceparent)
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, nil, err
		}
		return resp.StatusCode, resp.Header, nil
	}
}

// handlerTransport calls h in-process, with no sockets, so the numbers are
// engine numbers rather than network numbers.
func handlerTransport(h http.Handler) transport {
	return func(rq request, traceparent string) (int, http.Header, error) {
		req := httptest.NewRequest(rq.method, rq.path, strings.NewReader(rq.body))
		if rq.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("traceparent", traceparent)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Header(), nil
	}
}

// viewPatterns are the pattern texts the view traffic cycles through; they
// match the demo LKI schema but are harmless 0-count queries elsewhere.
var viewPatterns = []string{
	"n 0 user\nf 0",
	"n 0 user\nn 1 user\ne 1 0 corev\nf 0",
	"n 0 user\nn 1 org\ne 0 1 employed\nf 0",
}

func viewRequest(pattern string) request {
	body, _ := json.Marshal(map[string]string{"pattern": pattern}) // a string map always marshals
	return request{"view", http.MethodPost, "/v1/view", string(body)}
}

// loadMix is -load's client mix: 35% summarize, 10% summarize-k, 20% view,
// 5% workload, 20% stats, 10% update.
func loadMix(r *rand.Rand) request {
	switch p := r.Intn(100); {
	case p < 35:
		return request{"summarize", http.MethodPost, "/v1/summarize", fmt.Sprintf(`{"n":%d}`, 5+5*r.Intn(4))}
	case p < 45:
		return request{"summarize-k", http.MethodPost, "/v1/summarize-k", fmt.Sprintf(`{"k":%d,"n":10}`, 1+r.Intn(3))}
	case p < 65:
		return viewRequest(viewPatterns[r.Intn(len(viewPatterns))])
	case p < 70:
		return request{"workload", http.MethodPost, "/v1/workload", ""}
	case p < 90:
		return request{"stats", http.MethodGet, "/v1/stats", ""}
	default:
		// Writes between low-id nodes: inserts may be duplicates and deletes
		// may miss (both answered 400 with applied=0) — that is part of the
		// mix, exercising the no-op-write path without growing the graph
		// without bound.
		from, to := r.Intn(64), r.Intn(64)
		op := "insert"
		if r.Intn(2) == 0 {
			op = "delete"
		}
		return request{"update", http.MethodPost, "/v1/update",
			fmt.Sprintf(`{%q:[{"from":%d,"to":%d,"label":"corev"}]}`, op, from, to)}
	}
}

// readMix is a read-only client mix: 75% views over patterns, 25% stats.
func readMix(patterns []string) func(*rand.Rand) request {
	views := make([]request, len(patterns))
	for i, p := range patterns {
		views[i] = viewRequest(p)
	}
	return func(r *rand.Rand) request {
		if r.Intn(4) == 0 {
			return request{"stats", http.MethodGet, "/v1/stats", ""}
		}
		return views[r.Intn(len(views))]
	}
}

// nextTraceparent mints a W3C traceparent from a goroutine's seeded rand.
// Zero IDs are invalid per the spec; nudge them.
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

type driveConfig struct {
	Clients  int
	Requests int           // client requests in all; 0 runs for Duration instead
	Duration time.Duration // used only when Requests is 0
	Seed     int64
	Mix      func(*rand.Rand) request // draws one client request
	// Batches holds one insert/delete update pair per writer goroutine.
	// Each writer alternates its pair back to back until the clients stop.
	Batches [][2]request
}

// endpointStats aggregates one endpoint's requests.
type endpointStats struct {
	Endpoint  string `json:"endpoint"`
	Requests  int    `json:"requests"`
	OK        int    `json:"status_2xx"`
	ClientErr int    `json:"status_4xx"`
	ServerErr int    `json:"status_5xx"`
	NetErr    int    `json:"net_errors"`
	CacheHits int    `json:"cache_hits"`
	// Latency is p50, p95, p99, p99.9 and max, as seen by the client.
	Latency [5]time.Duration `json:"latency_ns"`
	// StageMean is each server stage's mean over the Timed responses that
	// carried Server-Timing, indexed by obs.Stage.
	Timed     int                          `json:"timed"`
	StageMean [obs.NumStages]time.Duration `json:"stage_mean_ns"`

	lats     []time.Duration
	stageSum [obs.NumStages]time.Duration
}

// report is one run's result.
type report struct {
	Requests  int              `json:"requests"`      // sent by the clients
	Batches   int              `json:"write_batches"` // sent by the writers
	Clients   int              `json:"clients"`
	Writers   int              `json:"writers"`
	Elapsed   time.Duration    `json:"elapsed_ns"`
	Endpoints []*endpointStats `json:"endpoints"`
	// Update latency, split by whether any read was in flight when the
	// update started: updates much slower under load than idle mean reads
	// are holding up the write path.
	LoadedUpdates   int           `json:"loaded_updates"`
	IdleUpdates     int           `json:"idle_updates"`
	LoadedUpdateMax time.Duration `json:"loaded_update_max_ns"`
	IdleUpdateMax   time.Duration `json:"idle_update_max_ns"`

	byEndpoint map[string]*endpointStats
}

// record adds one request to the report.
func (rep *report) record(endpoint string, status int, h http.Header, err error, lat time.Duration) {
	e := rep.byEndpoint[endpoint]
	if e == nil {
		e = &endpointStats{Endpoint: endpoint}
		rep.byEndpoint[endpoint] = e
		rep.Endpoints = append(rep.Endpoints, e)
	}
	e.Requests++
	e.lats = append(e.lats, lat)
	switch {
	case err != nil:
		e.NetErr++
	case status >= 500:
		e.ServerErr++
	case status >= 400:
		e.ClientErr++
	default:
		e.OK++
	}
	if h.Get("X-Fgs-Cache") == "hit" {
		e.CacheHits++
	}
	if timing := h.Get("Server-Timing"); timing != "" {
		e.Timed++
		stages := obs.ParseServerTiming(timing)
		for st := range e.stageSum {
			e.stageSum[st] += stages[obs.Stage(st).String()]
		}
	}
}

// drive runs cfg's workload through send and reports it.
func drive(send transport, cfg driveConfig) (*report, error) {
	if cfg.Clients <= 0 || (cfg.Requests <= 0 && cfg.Duration <= 0) {
		return nil, fmt.Errorf("drive: clients must be positive, and requests or duration too")
	}
	rep := &report{Clients: cfg.Clients, Writers: len(cfg.Batches), byEndpoint: map[string]*endpointStats{}}
	var (
		mu       sync.Mutex // guards rep
		stop     atomic.Bool
		inflight atomic.Int64 // reads in flight across all goroutines
		clients  sync.WaitGroup
		writers  sync.WaitGroup
	)
	// loop sends up to quota requests from one goroutine, counting them in
	// *sent.
	loop := func(seed int64, quota int, sent *int, next func(i int, rng *rand.Rand) request) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < quota && !stop.Load(); i++ {
			rq := next(i, rng)
			traceparent := nextTraceparent(rng)
			write := rq.endpoint == "update"
			loaded := write && inflight.Load() > 0
			if !write {
				inflight.Add(1)
			}
			t0 := time.Now()
			status, h, err := send(rq, traceparent)
			lat := time.Since(t0)
			if !write {
				inflight.Add(-1)
			}
			mu.Lock()
			*sent++
			rep.record(rq.endpoint, status, h, err, lat)
			switch {
			case !write || err != nil:
			case loaded:
				rep.LoadedUpdates++
				rep.LoadedUpdateMax = max(rep.LoadedUpdateMax, lat)
			default:
				rep.IdleUpdates++
				rep.IdleUpdateMax = max(rep.IdleUpdateMax, lat)
			}
			mu.Unlock()
		}
	}
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		quota := math.MaxInt
		if cfg.Requests > 0 {
			quota = cfg.Requests / cfg.Clients
			if c < cfg.Requests%cfg.Clients {
				quota++
			}
		}
		clients.Add(1)
		go func() {
			defer clients.Done()
			loop(cfg.Seed+int64(c), quota, &rep.Requests, func(_ int, rng *rand.Rand) request { return cfg.Mix(rng) })
		}()
	}
	for w, pair := range cfg.Batches {
		writers.Add(1)
		go func() {
			defer writers.Done()
			loop(cfg.Seed+int64(cfg.Clients+w), math.MaxInt, &rep.Batches, func(i int, _ *rand.Rand) request { return pair[i%2] })
		}()
	}
	if cfg.Requests <= 0 {
		time.Sleep(cfg.Duration)
		stop.Store(true)
	}
	clients.Wait()
	rep.Elapsed = time.Since(start)
	stop.Store(true)
	writers.Wait()

	sort.Slice(rep.Endpoints, func(i, j int) bool { return rep.Endpoints[i].Endpoint < rep.Endpoints[j].Endpoint })
	for _, e := range rep.Endpoints {
		sort.Slice(e.lats, func(i, j int) bool { return e.lats[i] < e.lats[j] })
		for i, permille := range []int{500, 950, 990, 999, 1000} {
			e.Latency[i] = e.lats[(len(e.lats)-1)*permille/1000]
		}
		if e.Timed > 0 {
			for st, d := range e.stageSum {
				e.StageMean[st] = d / time.Duration(e.Timed)
			}
		}
	}
	return rep, nil
}

// print writes the report's tables: the per-endpoint status split and
// latencies, the server-side stage breakdown, and update latency under
// read load.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "drive: %d requests from %d clients in %v (%.1f req/s)",
		rep.Requests, rep.Clients, rep.Elapsed.Round(time.Millisecond), float64(rep.Requests)/rep.Elapsed.Seconds())
	if rep.Writers > 0 {
		fmt.Fprintf(w, "; %d update batches from %d writers", rep.Batches, rep.Writers)
	}
	fmt.Fprintf(w, "\n\n%-12s %7s %7s %6s %6s %5s %7s %9s %9s %9s %9s %9s\n",
		"endpoint", "reqs", "2xx", "4xx", "5xx", "net", "cache", "p50", "p95", "p99", "p99.9", "max")
	fmt.Fprintln(w, strings.Repeat("-", 109))
	for _, e := range rep.Endpoints {
		fmt.Fprintf(w, "%-12s %7d %7d %6d %6d %5d %7d", e.Endpoint, e.Requests, e.OK, e.ClientErr, e.ServerErr, e.NetErr, e.CacheHits)
		for _, d := range e.Latency {
			fmt.Fprintf(w, " %9v", d.Round(10*time.Microsecond))
		}
		fmt.Fprintln(w)
	}

	header := true
	for _, e := range rep.Endpoints {
		if e.Timed == 0 {
			continue // the server sent no Server-Timing: tracing is off
		}
		if header {
			fmt.Fprintf(w, "\nserver-side stage breakdown (mean per request, from Server-Timing):\n%-12s %7s", "endpoint", "reqs")
			for st := obs.Stage(0); st < obs.NumStages; st++ {
				fmt.Fprintf(w, " %10s", st)
			}
			fmt.Fprintf(w, "\n%s\n", strings.Repeat("-", 20+11*int(obs.NumStages)))
			header = false
		}
		fmt.Fprintf(w, "%-12s %7d", e.Endpoint, e.Timed)
		for _, d := range e.StageMean {
			fmt.Fprintf(w, " %10v", d.Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}

	if rep.LoadedUpdates > 0 {
		fmt.Fprintf(w, "\nwrites under read load: %d/%d updates overlapped in-flight reads; max update latency %v under read load",
			rep.LoadedUpdates, rep.LoadedUpdates+rep.IdleUpdates, rep.LoadedUpdateMax.Round(10*time.Microsecond))
		if rep.IdleUpdates > 0 {
			fmt.Fprintf(w, " vs %v unloaded", rep.IdleUpdateMax.Round(10*time.Microsecond))
		}
		fmt.Fprintln(w)
	}
}

// runLoad drives cfg at the fgsd serving base and prints the report. It
// refuses a target whose /healthz does not answer 200 — a draining fgsd
// answers 503 there, and would turn the run into a table of refusals.
func runLoad(w io.Writer, base string, cfg driveConfig) error {
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("load: target not reachable: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("load: target not serving: /healthz answered %s", resp.Status)
	}
	rep, err := drive(httpTransport(client, base), cfg)
	if err != nil {
		return err
	}
	rep.print(w)
	return nil
}
