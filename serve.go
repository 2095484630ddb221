package swim

import (
	"log/slog"
	"net/http"

	"repro/internal/server"
	"repro/internal/trace"
)

// The serving façade: the same analytics the batch CLIs produce, exposed
// as a long-running HTTP/JSON service with a hybrid memory/disk trace
// store (columnar segments on disk, a frozen partial aggregate per
// trace) and a fingerprint-keyed, single-flight result cache (see
// internal/server, internal/storage, and the swimd command).

// ServeOptions sizes the swimd service.
type ServeOptions struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// MaxTraces / MaxTotalJobs bound the in-memory trace store (defaults
	// 64 traces, 2M total jobs). Without DataDir, ingests beyond them
	// are rejected, not silently evicted; with DataDir, the job bound
	// sizes only the hot tier and overflow spills to disk.
	MaxTraces    int
	MaxTotalJobs int
	// CacheEntries bounds the result cache (default 256).
	CacheEntries int
	// DataDir enables durable storage rooted at the given directory:
	// traces persist as checksummed columnar segment files with their
	// aggregates snapshotted alongside, survive restarts, and are
	// analyzed out-of-core when larger than the in-memory budget. A
	// trace whose manifest names a format or segment codec this build
	// does not read (such as JSONL segments from stores before colseg)
	// fails startup, naming the trace, and nothing of it is removed.
	DataDir string
	// Logger receives structured server logs (slow or failing requests,
	// recovery, compaction); nil disables logging.
	Logger *slog.Logger
	// Peers enables cluster mode: the full membership as "id=url,..."
	// including this node. Ingested traces are then sharded across the
	// members by consistent hashing and reports scatter/gather, merging
	// shard partials into answers byte-identical to single-node analysis.
	// Empty keeps the service single-node.
	Peers string
	// NodeID is this process's identity in Peers (required with Peers).
	NodeID string
	// Replication is how many owners hold each trace shard (default 2,
	// clamped to the cluster size).
	Replication int
}

// NewServeHandler builds the swimd HTTP handler without binding a
// socket — the form tests and embedders want. See internal/server for
// the endpoint inventory. It errors only when DataDir is set and the
// durable store cannot be opened or recovered.
func NewServeHandler(opts ServeOptions) (http.Handler, error) {
	srv, err := server.New(server.Config{
		MaxTraces:    opts.MaxTraces,
		MaxTotalJobs: opts.MaxTotalJobs,
		CacheEntries: opts.CacheEntries,
		DataDir:      opts.DataDir,
		Logger:       opts.Logger,
		Peers:        opts.Peers,
		NodeID:       opts.NodeID,
		Replication:  opts.Replication,
	})
	if err != nil {
		return nil, err
	}
	return srv.Handler(), nil
}

// Serve runs the workload-analytics service until the listener fails;
// it is the programmatic equivalent of the swimd command (which adds
// flags, preloading, and graceful shutdown).
func Serve(opts ServeOptions) error {
	addr := opts.Addr
	if addr == "" {
		addr = ":8080"
	}
	h, err := NewServeHandler(opts)
	if err != nil {
		return err
	}
	return http.ListenAndServe(addr, h)
}

// Fingerprint drains a job stream and returns the trace's stable
// content fingerprint: a hash over the canonical JSONL encoding, so it
// is independent of how the trace happens to be represented on disk.
// For an in-memory Trace, call its Fingerprint method. The swimd result
// cache keys on this value.
func Fingerprint(src Source) (string, error) {
	return trace.Fingerprint(src)
}
