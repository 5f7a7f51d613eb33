package main

// The scale tier: fgsbench -scale-bench boots the serving engine in-process
// over a large (optionally multi-million-node) graph and runs the workload
// driver against its handler — reader clients on a view/stats mix, writers
// streaming back-to-back update batches — then adds what only an in-process
// run can see: graph load time, the MVCC publication stats, and peak heap
// against a ceiling, with the whole result optionally saved as JSON.
//
// The read mix runs against the production result cache. Every epoch bump
// invalidates the whole per-epoch key space, so the writers force fresh
// computes of all distinctViews attribute-literal patterns before hits
// resume — the cache-warm steady state production traffic sees.
//
//	fgsbench -scale-bench -scale-nodes 1000000 -scale-duration 20s
//	fgsbench -scale-bench -scale-graph lki-1m.fgsb -scale-out scale.json

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/metrics"
	"strings"
	"time"

	fgs "github.com/cwru-db/fgs"
	"github.com/cwru-db/fgs/datasets"
	"github.com/cwru-db/fgs/internal/obs"
)

// distinctViews is how many attribute-literal view patterns the read mix
// adds to the shared viewPatterns.
const distinctViews = 64

type scaleConfig struct {
	GraphPath    string // load this file (binary or text); empty = generate
	Nodes        int    // LKISized node count, when generating
	Seed         int64
	GroupSpec    string // label:attr:val1,val2:lower:upper
	Duration     time.Duration
	Readers      int
	Writers      int
	WriteBatch   int // edges per update batch
	MemCeilingMB int
	OutPath      string // write the JSON result here ("" = stdout table only)
}

// scaleResult is the full run, serialized as JSON for CI consumption.
type scaleResult struct {
	Dataset     string  `json:"dataset"`
	Nodes       int     `json:"nodes"`
	Edges       int     `json:"edges"`
	LoadSeconds float64 `json:"load_seconds"`
	Drive       *report `json:"drive"`
	Epochs      uint64  `json:"epochs"`
	// MVCC publication stats, from the engine's metrics.
	Publishes     int64   `json:"publishes"`
	Clones        int64   `json:"clones"`
	WriterWaits   int64   `json:"writer_waits"`
	PublishMeanUs float64 `json:"publish_mean_us"`
	PublishP99Us  float64 `json:"publish_p99_us"`
	PeakHeapMB    float64 `json:"peak_heap_mb"`
	MemCeilingMB  int     `json:"mem_ceiling_mb"`
	WithinCeiling bool    `json:"within_ceiling"`
}

// runScale runs the scale tier and prints its report. It returns an error
// when the memory ceiling is blown, so CI smoke jobs fail loudly. Peak heap
// is sampled across the whole run — graph build, engine boot and the
// driver's own state all count against the ceiling.
func runScale(w io.Writer, cfg scaleConfig) error {
	if cfg.Writers < 0 {
		return fmt.Errorf("scale-bench: writers must not be negative")
	}
	stopSampling := samplePeakHeap()
	res, err := bootAndDrive(cfg)
	res.PeakHeapMB = stopSampling()
	if err != nil {
		return err
	}
	res.MemCeilingMB = cfg.MemCeilingMB
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

// bootAndDrive loads or generates the graph, boots an engine over it, and
// drives it for cfg.Duration.
func bootAndDrive(cfg scaleConfig) (scaleResult, error) {
	label, attr, values, lower, upper, err := datasets.ParseGroupSpec(cfg.GroupSpec)
	if err != nil {
		return scaleResult{}, fmt.Errorf("-scale-groups: %w", err)
	}
	loadStart := time.Now()
	g, name, err := buildScaleGraph(cfg)
	if err != nil {
		return scaleResult{}, err
	}
	res := scaleResult{Dataset: name, Nodes: g.NumNodes(), Edges: g.NumEdges(), LoadSeconds: time.Since(loadStart).Seconds()}
	fmt.Fprintf(os.Stderr, "fgsbench: scale graph %s ready in %.2fs: %d nodes, %d edges\n",
		name, res.LoadSeconds, res.Nodes, res.Edges)
	groups, err := datasets.GroupsByAttr(g, label, attr, values, lower, upper)
	if err != nil {
		return scaleResult{}, fmt.Errorf("scale-bench: groups: %w", err)
	}
	observer := fgs.NewObserver(nil)
	srv, err := fgs.NewServer(g, groups, fgs.ServerConfig{
		Workers:    cfg.Readers + cfg.Writers + 2,
		QueueDepth: 4 * (cfg.Readers + cfg.Writers),
		Deadline:   10 * time.Minute,
		Obs:        observer,
	})
	if err != nil {
		return scaleResult{}, err
	}
	batches := make([][2]request, cfg.Writers)
	for wr := range batches {
		batches[wr] = writerBatch(wr, cfg.WriteBatch, g.NumNodes())
	}
	res.Drive, err = drive(handlerTransport(srv.Handler()), driveConfig{
		Clients:  cfg.Readers,
		Duration: cfg.Duration,
		Seed:     cfg.Seed,
		Mix:      readMix(scalePatterns(label, attr, values)),
		Batches:  batches,
	})
	if err != nil {
		return scaleResult{}, err
	}
	res.Epochs = srv.Epoch()
	fillPublishStats(&res, observer.Reg.Gather())
	return res, nil
}

// buildScaleGraph loads the graph file, or generates a sized LKI graph.
func buildScaleGraph(cfg scaleConfig) (*fgs.Graph, string, error) {
	if cfg.GraphPath == "" {
		return datasets.LKISized(cfg.Seed, cfg.Nodes), fmt.Sprintf("lki-sized-%d", cfg.Nodes), nil
	}
	f, err := os.Open(cfg.GraphPath)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	g, err := fgs.ReadGraphAuto(f)
	return g, cfg.GraphPath, err
}

// scalePatterns builds the read mix's view-pattern universe: the shared
// viewPatterns plus distinctViews single-node patterns over the group
// attribute's value space (value names are "<prefix><i>" in the sized
// generators, e.g. city=c17).
func scalePatterns(label, attr string, values []string) []string {
	patterns := append([]string(nil), viewPatterns...)
	prefix := strings.TrimRight(values[0], "0123456789")
	for k := 0; k < distinctViews; k++ {
		patterns = append(patterns, fmt.Sprintf("n 0 %s %s=%s%d\nf 0", label, attr, prefix, k))
	}
	return patterns
}

// writerBatch builds one writer's insert and delete update requests: batch
// distinct edges under a per-writer label, endpoints folded into the
// node-id space so the batch applies on any graph size. Alternating the
// two, every batch applies fully and advances the epoch without growing
// the graph.
func writerBatch(wr, batch, numNodes int) [2]request {
	var edges strings.Builder
	for j := 0; j < max(batch, 1); j++ {
		if j > 0 {
			edges.WriteByte(',')
		}
		fmt.Fprintf(&edges, `{"from":%d,"to":%d,"label":"bench%d"}`, j%numNodes, (1000+j)%numNodes, wr)
	}
	return [2]request{
		{"update", http.MethodPost, "/v1/update", `{"insert":[` + edges.String() + `]}`},
		{"update", http.MethodPost, "/v1/update", `{"delete":[` + edges.String() + `]}`},
	}
}

// fillPublishStats extracts the MVCC publication series from a metrics
// snapshot: counters by name, and mean / approximate p99 (bucket upper
// bound) from the publish-latency histogram.
func fillPublishStats(res *scaleResult, metrics []obs.Metric) {
	for _, m := range metrics {
		switch m.Name {
		case "fgs_server_mvcc_publishes_total":
			res.Publishes = int64(m.Value)
		case "fgs_server_mvcc_clones_total":
			res.Clones = int64(m.Value)
		case "fgs_server_mvcc_writer_waits_total":
			res.WriterWaits = int64(m.Value)
		case "fgs_server_mvcc_publish_us":
			if m.Hist == nil || m.Hist.Count == 0 {
				continue
			}
			res.PublishMeanUs = float64(m.Hist.Sum) / float64(m.Hist.Count)
			want := (m.Hist.Count*99 + 99) / 100
			for i, cum := range m.Hist.Buckets {
				if cum >= want {
					if i < len(m.Hist.Buckets)-1 {
						res.PublishP99Us = float64(obs.HistBound(i))
					} else {
						// The p99 landed in the +Inf overflow bucket; -1
						// signals "beyond the histogram's finite range".
						res.PublishP99Us = -1
					}
					break
				}
			}
		}
	}
}

// samplePeakHeap samples the heap high-water mark every 250 ms until the
// returned stop func, which returns the peak in MB, is called. It reads
// runtime/metrics' heap-objects bytes, the quantity MemStats.HeapAlloc
// reports, without ReadMemStats' stop-the-world pause inside the measured
// window.
func samplePeakHeap() (stop func() float64) {
	var peak uint64 // the sampler goroutine's alone while it runs
	sample := func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
	}
	sample()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sample()
			case <-quit:
				return
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		sample()
		return float64(peak) / (1 << 20)
	}
}

// printScale renders the driver's report between the graph line and the
// engine's MVCC and memory lines.
func printScale(w io.Writer, res scaleResult) {
	fmt.Fprintf(w, "scale-bench: %s — %d nodes, %d edges, loaded in %.2fs\n\n",
		res.Dataset, res.Nodes, res.Edges, res.LoadSeconds)
	res.Drive.print(w)
	p99 := fmt.Sprintf("≤ %.0fµs", res.PublishP99Us)
	if res.PublishP99Us < 0 {
		p99 = fmt.Sprintf("> %dµs", obs.HistBound(obs.HistNumBuckets-1))
	}
	fmt.Fprintf(w, "\nmvcc: %d epochs, %d publishes (%d boot clones, %d writer waits), publish mean %.0fµs, p99 %s\n",
		res.Epochs, res.Publishes, res.Clones, res.WriterWaits, res.PublishMeanUs, p99)
	fmt.Fprintf(w, "peak heap: %.0f MB (ceiling %d MB, within: %v)\n",
		res.PeakHeapMB, res.MemCeilingMB, res.WithinCeiling)
}
