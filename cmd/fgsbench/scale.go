package main

// The scale-bench mode: fgsbench -scale-bench boots the serving engine
// in-process over a large (optionally multi-million-node) graph and measures
// the MVCC read path against the locked baseline under identical mixed
// read/write load: read throughput and tail latency while writers churn,
// update latency, snapshot-publish cost, and peak resident memory against a
// ceiling. It drives the engine's http.Handler directly (no TCP) so the
// numbers are engine numbers, not socket numbers.
//
// The read mix runs with the production result cache by default: cache hits
// bypass the engine lock in both modes, so what the modes differ on is the
// misses — every epoch bump invalidates the whole per-epoch key space, and
// in locked mode those recomputes convoy behind the pending writer while in
// mvcc they proceed against the pinned snapshot. -scale-cache-entries -1
// turns the cache off for a pure-compute comparison.
//
//	fgsbench -scale-bench -scale-nodes 1000000 -scale-duration 20s
//	fgsbench -scale-bench -scale-graph lki-1m.fgsb -scale-out scale.json

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	fgs "github.com/cwru-db/fgs"
	"github.com/cwru-db/fgs/datasets"
	"github.com/cwru-db/fgs/internal/obs"
)

type scaleConfig struct {
	GraphPath string // load this file (binary or text); empty = generate
	Dataset   string // lki or dbp (sized generators), when generating
	Nodes     int    // target node count, when generating
	Seed      int64
	GroupSpec string // label:attr:val1,val2:lower:upper
	Duration  time.Duration
	Readers   int
	Writers   int
	// WriteInterval paces each writer between update batches. Zero means
	// back-to-back updates — that measures Maintainer.Apply saturation (the
	// same CPU-bound work in both modes), not the read path; a sustained
	// churn rate is what the locked-vs-mvcc comparison is about.
	WriteInterval time.Duration
	// WriteBatch is the number of edges per update batch. Bulk batches are
	// the streaming-ingest scenario: Maintainer.Apply holds the exclusive
	// lock for the whole batch in locked mode, so batch size directly sets
	// how long locked-mode reads freeze per epoch; the MVCC path publishes
	// the same batch in O(delta) and reads never stop.
	WriteBatch int
	MaxViews   int
	// CacheEntries sizes the epoch-keyed result cache: 0 keeps the server
	// default (the production configuration), -1 disables it so every read
	// is a fresh compute. Both modes share the cache implementation and a
	// hit never touches the engine lock, so the comparison isolates what
	// happens on the misses each epoch bump forces.
	CacheEntries int
	// DistinctViews widens the read mix with this many attribute-literal
	// view patterns (one per value of the group attribute) on top of the
	// shared viewPatterns. Every epoch bump invalidates all of them at
	// once, so churn forces DistinctViews fresh computes per epoch — the
	// cache-warm steady state the production mix actually sees.
	DistinctViews int
	// Rounds interleaves that many locked/mvcc mode pairs and reports the
	// median round per mode (by read throughput). On shared or single-core
	// hosts a GC cycle or a noisy neighbour can land inside one mode's
	// window; interleaving plus the median filters that out.
	Rounds       int
	MemCeilingMB int
	OutPath      string // write the JSON result here ("" = stdout table only)
}

// scaleModeResult is one read-mode's measurement.
type scaleModeResult struct {
	Mode        string  `json:"mode"`
	ReadOps     int64   `json:"read_ops"`
	ReadRPS     float64 `json:"read_rps"`
	ReadP50Ms   float64 `json:"read_p50_ms"`
	ReadP99Ms   float64 `json:"read_p99_ms"`
	ReadP999Ms  float64 `json:"read_p999_ms"`
	UpdateOps   int64   `json:"update_ops"`
	UpdateP50Ms float64 `json:"update_p50_ms"`
	UpdateMaxMs float64 `json:"update_max_ms"`
	Epochs      uint64  `json:"epochs"`
	CacheHits   int64   `json:"cache_hits"`
	CacheHitPct float64 `json:"cache_hit_pct"`
	// MVCC-only publication stats (zero in locked mode).
	Publishes     int64   `json:"publishes,omitempty"`
	Clones        int64   `json:"clones,omitempty"`
	WriterWaits   int64   `json:"writer_waits,omitempty"`
	PublishMeanUs float64 `json:"publish_mean_us,omitempty"`
	PublishP99Us  float64 `json:"publish_p99_us,omitempty"`
}

// scaleResult is the full run, serialized as JSON for CI consumption. With
// Rounds > 1, Modes holds each mode's median round and RoundSpeedups the
// per-round ratios for transparency.
type scaleResult struct {
	Dataset       string            `json:"dataset"`
	Nodes         int               `json:"nodes"`
	Edges         int               `json:"edges"`
	LoadSeconds   float64           `json:"load_seconds"`
	Rounds        int               `json:"rounds"`
	Modes         []scaleModeResult `json:"modes"`
	RoundSpeedups []float64         `json:"round_speedups,omitempty"`
	ReadSpeedup   float64           `json:"read_speedup"`
	PeakHeapMB    float64           `json:"peak_heap_mb"`
	MemCeilingMB  int               `json:"mem_ceiling_mb"`
	WithinCeiling bool              `json:"within_ceiling"`
}

// buildScaleGraph loads or generates the benchmark graph. Generation and
// file loads are both deterministic, so each mode gets an identical fresh
// graph by calling this again.
func buildScaleGraph(cfg scaleConfig) (*fgs.Graph, string, error) {
	if cfg.GraphPath != "" {
		f, err := os.Open(cfg.GraphPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		g, err := fgs.ReadGraphAuto(f)
		return g, cfg.GraphPath, err
	}
	switch cfg.Dataset {
	case "lki":
		return datasets.LKISized(cfg.Seed, cfg.Nodes), fmt.Sprintf("lki-sized-%d", cfg.Nodes), nil
	case "dbp":
		return datasets.DBPSized(cfg.Seed, cfg.Nodes), fmt.Sprintf("dbp-sized-%d", cfg.Nodes), nil
	default:
		return nil, "", fmt.Errorf("scale-bench: unknown dataset %q (want lki or dbp)", cfg.Dataset)
	}
}

// runScale executes the scale benchmark: per mode, boot a fresh engine over
// an identical graph and drive it with Readers read goroutines (view/stats
// mix) and Writers update goroutines (insert/delete cycles that always
// apply) for Duration. Returns an error when the memory ceiling is blown,
// so CI smoke jobs fail loudly.
func runScale(w io.Writer, cfg scaleConfig) error {
	if cfg.Readers <= 0 || cfg.Writers <= 0 {
		return fmt.Errorf("scale-bench: readers and writers must be positive")
	}
	label, attr, values, lower, upper, err := parseScaleGroups(cfg.GroupSpec)
	if err != nil {
		return err
	}

	peak := &peakTracker{}
	stopSampling := peak.start()
	defer stopSampling()

	rounds := cfg.Rounds
	if rounds < 1 {
		rounds = 1
	}
	res := scaleResult{MemCeilingMB: cfg.MemCeilingMB, Rounds: rounds}
	perMode := map[string][]scaleModeResult{}
	for round := 0; round < rounds; round++ {
		for _, mode := range []string{"locked", "mvcc"} {
			loadStart := time.Now()
			g, name, err := buildScaleGraph(cfg)
			if err != nil {
				return err
			}
			loadTime := time.Since(loadStart)
			if res.Dataset == "" {
				res.Dataset = name
				res.Nodes = g.NumNodes()
				res.Edges = g.NumEdges()
				res.LoadSeconds = loadTime.Seconds()
				fmt.Fprintf(os.Stderr, "fgsbench: scale graph %s ready in %v: %d nodes, %d edges\n",
					name, loadTime.Round(time.Millisecond), g.NumNodes(), g.NumEdges())
			}
			groups, err := datasets.GroupsByAttr(g, label, attr, values, lower, upper)
			if err != nil {
				return fmt.Errorf("scale-bench: groups: %w", err)
			}
			mr, err := runScaleMode(g, groups, mode, cfg, scalePatterns(cfg, label, attr, values))
			if err != nil {
				return err
			}
			perMode[mode] = append(perMode[mode], mr)
			fmt.Fprintf(os.Stderr, "fgsbench: scale %s round %d/%d: %.0f reads/s, read p99 %.2fms, update max %.2fms\n",
				mode, round+1, rounds, mr.ReadRPS, mr.ReadP99Ms, mr.UpdateMaxMs)
			// Drop the engine and its replicas before the next mode boots.
			runtime.GC()
		}
	}
	stopSampling()

	for _, mode := range []string{"locked", "mvcc"} {
		res.Modes = append(res.Modes, medianByRPS(perMode[mode]))
	}
	for round := 0; round < rounds; round++ {
		if l := perMode["locked"][round].ReadRPS; l > 0 {
			res.RoundSpeedups = append(res.RoundSpeedups, perMode["mvcc"][round].ReadRPS/l)
		}
	}
	if res.Modes[0].ReadRPS > 0 {
		res.ReadSpeedup = res.Modes[1].ReadRPS / res.Modes[0].ReadRPS
	}
	res.PeakHeapMB = float64(peak.peak.Load()) / (1 << 20)
	res.WithinCeiling = cfg.MemCeilingMB <= 0 || res.PeakHeapMB <= float64(cfg.MemCeilingMB)

	printScale(w, res)
	if cfg.OutPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.OutPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fgsbench: scale results written to %s\n", cfg.OutPath)
	}
	if !res.WithinCeiling {
		return fmt.Errorf("scale-bench: peak heap %.0f MB exceeds ceiling %d MB", res.PeakHeapMB, cfg.MemCeilingMB)
	}
	return nil
}

// scalePatterns builds the read mix's view-pattern universe: the shared
// viewPatterns plus DistinctViews single-node patterns over the group
// attribute's value space (value names are "<prefix><i>" in the sized
// generators, e.g. city=c17). Distinct patterns are distinct cache keys, so
// every epoch bump forces that many fresh computes before hits resume.
func scalePatterns(cfg scaleConfig, label, attr string, values []string) []string {
	patterns := append([]string(nil), viewPatterns...)
	prefix := strings.TrimRight(values[0], "0123456789")
	for k := 0; k < cfg.DistinctViews; k++ {
		patterns = append(patterns, fmt.Sprintf("n 0 %s %s=%s%d\nf 0", label, attr, prefix, k))
	}
	return patterns
}

// runScaleMode boots one engine and drives the mixed workload against its
// handler. Readers count only 2xx responses; writers cycle insert/delete of
// per-writer edges so every batch applies and advances the epoch.
func runScaleMode(g *fgs.Graph, groups *fgs.Groups, mode string, cfg scaleConfig, patterns []string) (scaleModeResult, error) {
	observer := fgs.NewObserver(nil)
	srv, err := fgs.NewServer(g, groups, fgs.ServerConfig{
		Workers:      cfg.Readers + cfg.Writers + 2,
		QueueDepth:   4 * (cfg.Readers + cfg.Writers),
		CacheEntries: cfg.CacheEntries,
		Deadline:     10 * time.Minute,
		ReadMode:     mode,
		MaxViews:     cfg.MaxViews,
		Obs:          observer,
	})
	if err != nil {
		return scaleModeResult{}, err
	}
	h := srv.Handler()

	var stop atomic.Bool
	var wg sync.WaitGroup
	var cacheHits atomic.Int64
	readLats := make([][]time.Duration, cfg.Readers)
	writeLats := make([][]time.Duration, cfg.Writers)
	start := time.Now()
	for r := 0; r < cfg.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := 0
			for !stop.Load() {
				var req *http.Request
				if i%4 == 3 {
					req = httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
				} else {
					// Stagger readers through the pattern universe so they
					// don't march over the same cache key in lockstep.
					body := fmt.Sprintf(`{"pattern":%q}`, patterns[(i+r*7)%len(patterns)])
					req = httptest.NewRequest(http.MethodPost, "/v1/view", strings.NewReader(body))
					req.Header.Set("Content-Type", "application/json")
				}
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				if rec.Code == http.StatusOK {
					readLats[r] = append(readLats[r], time.Since(t0))
					if rec.Header().Get("X-Fgs-Cache") == "hit" {
						cacheHits.Add(1)
					}
				}
				i++
			}
		}(r)
	}
	for wr := 0; wr < cfg.Writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			// Each writer cycles insert/delete of the same per-writer edge
			// batch (label disambiguates writers), so every batch applies
			// fully and advances the epoch without growing the graph.
			insertBody, deleteBody := writerBatchBodies(wr, cfg.WriteBatch, g.NumNodes())
			i := 0
			for !stop.Load() {
				body := insertBody
				if i%2 == 1 {
					body = deleteBody
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/update", strings.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				if rec.Code == http.StatusOK {
					writeLats[wr] = append(writeLats[wr], time.Since(t0))
				}
				i++
				if cfg.WriteInterval > 0 {
					time.Sleep(cfg.WriteInterval)
				}
			}
		}(wr)
	}
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	var reads, writes []time.Duration
	for _, l := range readLats {
		reads = append(reads, l...)
	}
	for _, l := range writeLats {
		writes = append(writes, l...)
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i] < reads[j] })
	sort.Slice(writes, func(i, j int) bool { return writes[i] < writes[j] })

	mr := scaleModeResult{
		Mode:        mode,
		ReadOps:     int64(len(reads)),
		ReadRPS:     float64(len(reads)) / elapsed.Seconds(),
		ReadP50Ms:   ms(permille(reads, 500)),
		ReadP99Ms:   ms(permille(reads, 990)),
		ReadP999Ms:  ms(permille(reads, 999)),
		UpdateOps:   int64(len(writes)),
		UpdateP50Ms: ms(permille(writes, 500)),
		UpdateMaxMs: ms(permille(writes, 1000)),
		Epochs:      srv.Epoch(),
		CacheHits:   cacheHits.Load(),
	}
	if mr.ReadOps > 0 {
		mr.CacheHitPct = 100 * float64(mr.CacheHits) / float64(mr.ReadOps)
	}
	if mode == "mvcc" {
		fillPublishStats(&mr, observer.Reg.Gather())
	}
	return mr, nil
}

// medianByRPS picks the round with the median read throughput (lower-middle
// for even counts) — the representative round on noisy hosts.
func medianByRPS(rounds []scaleModeResult) scaleModeResult {
	sorted := append([]scaleModeResult(nil), rounds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ReadRPS < sorted[j].ReadRPS })
	return sorted[(len(sorted)-1)/2]
}

// writerBatchBodies prebuilds one writer's insert and delete update bodies:
// batch distinct edges under a per-writer label, endpoints folded into the
// node-id space so the batch applies on any graph size.
func writerBatchBodies(wr, batch, numNodes int) (insert, delete string) {
	if batch < 1 {
		batch = 1
	}
	var edges strings.Builder
	for j := 0; j < batch; j++ {
		if j > 0 {
			edges.WriteByte(',')
		}
		fmt.Fprintf(&edges, `{"from":%d,"to":%d,"label":"bench%d"}`,
			j%numNodes, (1000+j)%numNodes, wr)
	}
	return `{"insert":[` + edges.String() + `]}`, `{"delete":[` + edges.String() + `]}`
}

// fillPublishStats extracts the MVCC publication series from a metrics
// snapshot: counters by name, and mean / approximate p99 (bucket upper
// bound) from the publish-latency histogram.
func fillPublishStats(mr *scaleModeResult, metrics []obs.Metric) {
	for _, m := range metrics {
		switch m.Name {
		case "fgs_server_mvcc_publishes_total":
			mr.Publishes = int64(m.Value)
		case "fgs_server_mvcc_clones_total":
			mr.Clones = int64(m.Value)
		case "fgs_server_mvcc_writer_waits_total":
			mr.WriterWaits = int64(m.Value)
		case "fgs_server_mvcc_publish_us":
			if m.Hist == nil || m.Hist.Count == 0 {
				continue
			}
			mr.PublishMeanUs = float64(m.Hist.Sum) / float64(m.Hist.Count)
			want := (m.Hist.Count*99 + 99) / 100
			for i, cum := range m.Hist.Buckets {
				if cum >= want {
					if i < len(m.Hist.Buckets)-1 {
						mr.PublishP99Us = float64(obs.HistBound(i))
					} else {
						// The p99 landed in the +Inf overflow bucket; -1
						// signals "beyond the histogram's finite range".
						mr.PublishP99Us = -1
					}
					break
				}
			}
		}
	}
}

// peakTracker samples the heap high-water mark in the background.
type peakTracker struct {
	peak atomic.Uint64
	stop chan struct{}
	once sync.Once
}

func (p *peakTracker) start() func() {
	p.stop = make(chan struct{})
	sample := func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		for {
			old := p.peak.Load()
			if m.HeapAlloc <= old || p.peak.CompareAndSwap(old, m.HeapAlloc) {
				return
			}
		}
	}
	sample()
	go func() {
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sample()
			case <-p.stop:
				return
			}
		}
	}()
	return func() { p.once.Do(func() { sample(); close(p.stop) }) }
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// parseScaleGroups splits "label:attr:val1,val2:lower:upper" (the fgsd
// group-spec syntax).
func parseScaleGroups(spec string) (label, attr string, values []string, lower, upper int, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 5 {
		return "", "", nil, 0, 0, fmt.Errorf("bad -scale-groups %q: want label:attr:val1,val2:lower:upper", spec)
	}
	if _, err := fmt.Sscanf(parts[3]+" "+parts[4], "%d %d", &lower, &upper); err != nil {
		return "", "", nil, 0, 0, fmt.Errorf("bad -scale-groups bounds in %q", spec)
	}
	return parts[0], parts[1], strings.Split(parts[2], ","), lower, upper, nil
}

// printScale renders the human-readable summary table.
func printScale(w io.Writer, res scaleResult) {
	fmt.Fprintf(w, "scale-bench: %s — %d nodes, %d edges, loaded in %.2fs\n\n",
		res.Dataset, res.Nodes, res.Edges, res.LoadSeconds)
	fmt.Fprintf(w, "%-8s %10s %10s %9s %9s %9s %9s %9s %7s %6s   (latencies in ms)\n",
		"mode", "reads", "reads/s", "r_p50", "r_p99", "r_p99.9", "upd_p50", "upd_max", "epochs", "hit%")
	fmt.Fprintln(w, strings.Repeat("-", 95))
	for _, m := range res.Modes {
		fmt.Fprintf(w, "%-8s %10d %10.0f %9.2f %9.2f %9.2f %9.2f %9.2f %7d %6.1f\n",
			m.Mode, m.ReadOps, m.ReadRPS, m.ReadP50Ms, m.ReadP99Ms, m.ReadP999Ms,
			m.UpdateP50Ms, m.UpdateMaxMs, m.Epochs, m.CacheHitPct)
	}
	for _, m := range res.Modes {
		if m.Mode == "mvcc" && m.Publishes > 0 {
			p99 := fmt.Sprintf("≤ %.0fµs", m.PublishP99Us)
			if m.PublishP99Us < 0 {
				p99 = fmt.Sprintf("> %dµs", obs.HistBound(obs.HistNumBuckets-1))
			}
			fmt.Fprintf(w, "\nmvcc: %d publishes (%d boot clones, %d writer waits), publish mean %.0fµs, p99 %s\n",
				m.Publishes, m.Clones, m.WriterWaits, m.PublishMeanUs, p99)
		}
	}
	fmt.Fprintf(w, "\nread speedup (mvcc/locked): %.2fx", res.ReadSpeedup)
	if res.Rounds > 1 {
		fmt.Fprintf(w, " — median of %d interleaved rounds (per-round:", res.Rounds)
		for _, s := range res.RoundSpeedups {
			fmt.Fprintf(w, " %.2fx", s)
		}
		fmt.Fprint(w, ")")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "peak heap: %.0f MB (ceiling %d MB, within: %v)\n",
		res.PeakHeapMB, res.MemCeilingMB, res.WithinCeiling)
}
