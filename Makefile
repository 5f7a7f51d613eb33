GO ?= go

.PHONY: all build test race serve lint fgslint lint-budget vet staticcheck govulncheck bench bench-ci bench-compare bench-scale bench-scale-smoke

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrent packages again under the race detector (CI's Race step):
# the parallel scoring pipeline with the E_v^r cache and matcher its
# workers share, the observability collectors (incl. the request tracer and
# flight recorder), the graph reads they all share, the serving engine's
# single-writer/many-reader paths, fgstore's background snapshot writer,
# and fgsbench's workload driver (client and writer goroutines sharing an
# in-flight counter, a stop flag and the heap sampler).
race:
	$(GO) test -race ./internal/mining/ ./internal/pattern/ ./internal/core/ ./internal/graph/ ./internal/obs/ ./internal/server/ ./internal/store/ ./cmd/fgsbench/

# Run the summarization daemon on the demo LKI graph (see README "Serving").
# Override flags via ARGS: make serve ARGS='-addr :9000 -workers 4'
serve:
	$(GO) run ./cmd/fgsd $(ARGS)

# lint is the offline gate: go vet plus the repo's own determinism & safety
# multichecker (see DESIGN.md "Determinism contract & lint"). staticcheck and
# govulncheck are run by CI's lint job and locally only if installed.
lint: vet fgslint

vet:
	$(GO) vet ./...

fgslint:
	$(GO) run ./cmd/fgslint -budget lint-budget.json ./...

# Rewrite lint-budget.json to the current //lint:allow counts — the ratchet
# file fgslint -budget and CI enforce (DESIGN.md §12). Run after consciously
# adding or removing an allow.
lint-budget:
	$(GO) run ./cmd/fgslint -write-budget lint-budget.json ./...

staticcheck:
	staticcheck ./...

govulncheck:
	govulncheck ./...

bench:
	$(GO) test -bench=. -benchmem -timeout 120m

# bench-ci is CI's bench job: the performance-sensitive paths only,
# with the raw -json stream archived under a dated name for benchstat /
# bench-compare diffs. The pinned set covers selection (GreedyCover, and
# k-APXFGS's max coverage over SumGenHub's candidates in KAPXFGSHub), the
# mining pipeline (SumGen*, including SumGenHub's hub-reaching anchors,
# sequential and through the scoring pool at 1 and 2 workers), the
# E_v^r cache, the matcher hot paths (hub closing edges included) and
# canonical codes, the graph substrate, and the fgstore write/recovery paths.
BENCH_CI_RE := BenchmarkGreedyCover|BenchmarkKAPXFGSHub|BenchmarkSumGen$$|BenchmarkSumGenParallel|BenchmarkSumGenHub|BenchmarkErCacheHit|BenchmarkSumGenObs|BenchmarkMatchAtStar|BenchmarkMatchAtChain3|BenchmarkMatchHubClosingEdge|BenchmarkCoveredEdgesAt|BenchmarkCanonicalCode|BenchmarkErCacheGet|BenchmarkRHopEdges2|BenchmarkAddEdge|BenchmarkAddEdgeHighDegree|BenchmarkHasEdge|BenchmarkWALAppend|BenchmarkRecoveryReplay

# The raw stream is also condensed into BENCH_<date>-summary.json — a compact
# sorted {name, ns_per_op, bytes_per_op, allocs_per_op} array for dashboards
# and cheap cross-run storage (cmd/fgsbenchcmp -summarize).
bench-ci:
	$(GO) test -json -run '^$$' -p 1 \
		-bench '$(BENCH_CI_RE)' \
		-benchmem ./internal/core/ ./internal/mining/ ./internal/pattern/ ./internal/graph/ ./internal/store/ \
		| tee "BENCH_$$(date -u +%F).json"
	$(GO) run ./cmd/fgsbenchcmp -summarize "BENCH_$$(date -u +%F).json" \
		> "BENCH_$$(date -u +%F)-summary.json"

# bench-compare diffs two bench-ci JSON streams and fails on >15% time or
# alloc regressions: make bench-compare OLD=BENCH_2026-08-05.json NEW=BENCH_<date>.json
bench-compare:
	$(GO) run ./cmd/fgsbenchcmp -old $(OLD) -new $(NEW)

# bench-scale is the serving scale tier (DESIGN.md §11): generate a
# multi-million-node LKI graph, persist it through the binary codec, and
# drive the MVCC read path in-process under saturating bulk ingest
# (back-to-back SCALE_BATCH-edge update batches) — load time, per-endpoint
# throughput/tails and stage breakdown, update latency, snapshot-publish
# cost, peak heap vs the memory ceiling. Results land in scale-results.json.
# Override via SCALE_NODES / SCALE_DURATION / SCALE_BATCH / SCALE_MEM_MB.
SCALE_NODES ?= 1000000
SCALE_DURATION ?= 20s
SCALE_BATCH ?= 4096
SCALE_MEM_MB ?= 8192

bench-scale:
	$(GO) run ./cmd/fgsgen -dataset lki -nodes $(SCALE_NODES) -format binary \
		-o "lki-$(SCALE_NODES).fgsb"
	$(GO) run ./cmd/fgsbench -scale-bench \
		-scale-graph "lki-$(SCALE_NODES).fgsb" -scale-duration $(SCALE_DURATION) \
		-scale-write-batch $(SCALE_BATCH) \
		-scale-mem-ceiling-mb $(SCALE_MEM_MB) -scale-out scale-results.json

# bench-scale-smoke is the CI-sized variant: small graph, short window,
# tight memory ceiling — it exists to fail loudly if the MVCC read path or
# the sized generators regress, not to produce publishable numbers.
bench-scale-smoke:
	$(GO) run ./cmd/fgsbench -scale-bench \
		-scale-nodes 150000 -scale-duration 5s \
		-scale-readers 4 -scale-writers 1 -scale-write-batch 256 \
		-scale-mem-ceiling-mb 2048 -scale-out scale-smoke.json
