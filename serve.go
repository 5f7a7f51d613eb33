package fgs

import (
	"github.com/cwru-db/fgs/internal/server"
	"github.com/cwru-db/fgs/internal/store"
)

// Serving layer (see DESIGN.md §10). A Server wraps a graph, its groups, and
// an Inc-FGS maintainer behind a concurrent HTTP/JSON engine: writes are
// serialized and bump the graph epoch, reads run concurrently under snapshot
// isolation and are answered from an epoch-keyed result cache when possible.
// cmd/fgsd is the daemon around it.
type (
	// Server is the concurrent summarization engine with its HTTP surface.
	Server = server.Server
	// ServerConfig sizes the engine: defaults for r/k/n/utility, worker
	// slots, admission queue depth, cache capacity, and request deadline.
	ServerConfig = server.Config

	// ServerSummarizeRequest is the /v1/summarize(-k) request body.
	ServerSummarizeRequest = server.SummarizeRequest
	// ServerViewRequest is the /v1/view request body.
	ServerViewRequest = server.ViewRequest
	// ServerWorkloadRequest is the /v1/workload request body.
	ServerWorkloadRequest = server.WorkloadRequest
	// ServerUpdateRequest is the /v1/update request body.
	ServerUpdateRequest = server.UpdateRequest
	// ServerEdgeChange is one edge of a /v1/update batch.
	ServerEdgeChange = server.EdgeChange

	// ServerSummarizeResponse is the /v1/summarize(-k) response.
	ServerSummarizeResponse = server.SummarizeResponse
	// ServerViewResponse is the /v1/view response.
	ServerViewResponse = server.ViewResponse
	// ServerWorkloadResponse is the /v1/workload response.
	ServerWorkloadResponse = server.WorkloadResponse
	// ServerUpdateResponse is the /v1/update response.
	ServerUpdateResponse = server.UpdateResponse
	// ServerStatsResponse is the /v1/stats engine snapshot.
	ServerStatsResponse = server.StatsResponse
)

// NewServer builds the serving engine over g and groups: it constructs the
// configured utility, runs the initial summarization, and mounts the HTTP
// routes. The graph must not be mutated by the caller afterwards — all
// writes go through POST /v1/update.
func NewServer(g *Graph, groups *Groups, cfg ServerConfig) (*Server, error) {
	return server.New(g, groups, cfg)
}

// Durability layer (fgstore, DESIGN.md §15): a write-ahead log of applied
// update batches plus periodic snapshots, so a restarted daemon recovers to
// the byte-identical pre-crash state. Open a store, hand it (and what it
// recovered) to ServerConfig.Store/Resume, and close it after the final
// drain snapshot.
type (
	// Store is an open fgstore data directory.
	Store = store.Store
	// StoreOptions configures OpenStore: directory, fsync policy, segment
	// size.
	StoreOptions = store.Options
	// StoreRecovered reports what OpenStore found: the snapshot image and
	// the WAL tail to replay, or Fresh for an empty directory.
	StoreRecovered = store.Recovered
)

// WAL fsync policies for StoreOptions.Fsync: FsyncBatch (the default) syncs
// every batch before it is acknowledged, FsyncOff never syncs on the append
// path.
const (
	FsyncBatch = store.FsyncBatch
	FsyncOff   = store.FsyncOff

	// Deprecated: group commit is gone. FsyncGroup equals FsyncBatch, the
	// default, and is kept only so existing callers compile.
	FsyncGroup = store.FsyncBatch
)

// OpenStore opens (creating if needed) an fgstore data directory and
// recovers its latest state.
func OpenStore(opts StoreOptions) (*Store, *StoreRecovered, error) {
	return store.Open(opts)
}
