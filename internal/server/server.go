package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Config sizes a Server.
type Config struct {
	// MaxTraces / MaxTotalJobs bound the trace store (zero: defaults).
	// With DataDir set, MaxTotalJobs bounds only the in-memory hot tier:
	// bigger uploads spill to disk instead of being rejected.
	MaxTraces    int
	MaxTotalJobs int
	// CacheEntries bounds the result cache (zero: default).
	CacheEntries int
	// MaxUploadBytes caps one ingest request's body (zero: default
	// 1 GiB). The job-count budget bounds decoded jobs; this bounds the
	// raw bytes a single newline-free request could make the line
	// reader buffer.
	MaxUploadBytes int64
	// DataDir enables the durable storage engine rooted there: traces
	// are written through to checksummed on-disk colseg segments with
	// partial aggregates persisted alongside, recovered (and verified)
	// at startup, and served out-of-core when they exceed the hot tier.
	// New fails, naming the trace and removing nothing, when a trace's
	// manifest names a format or segment codec this build does not
	// read, such as the JSONL segments of stores before colseg. Empty
	// keeps the pre-durability behavior: memory only, nothing survives
	// a restart.
	DataDir string
	// SegmentJobs caps jobs per on-disk segment file (zero: the storage
	// engine's default). Segments are the out-of-core sharding unit.
	SegmentJobs int
	// CompactInterval spaces the background compaction sweeps that
	// rewrite fragmented many-segment generations (a long-appended
	// trace's usual shape) into packed ones. Zero disables compaction;
	// it needs DataDir. Rewrites preserve fingerprints exactly, so
	// compaction is invisible to every read path.
	CompactInterval time.Duration
	// Logger receives structured server logs (recovery, compaction,
	// cluster housekeeping, and slow or failing requests — each with its
	// request_id). Nil disables logging.
	Logger *slog.Logger
	// SlowRequestThreshold is the latency at which a request is logged
	// and counted as slow (zero: DefaultSlowRequestThreshold; negative:
	// slow-request logging disabled).
	SlowRequestThreshold time.Duration
	// DebugRequests sizes the in-memory ring of recent requests served
	// by GET /v1/debug/requests (zero: obs.DefaultRequestLogSize).
	DebugRequests int
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profile endpoints expose internals and cost work, so
	// they are opt-in (the -pprof flag).
	EnablePprof bool

	// Peers enables cluster mode: the full membership as the -peers flag
	// syntax (id=url,...), including this node. Empty keeps the server
	// single-node; every field below is then ignored.
	Peers string
	// NodeID is this process's identity in Peers.
	NodeID string
	// Replication is how many owners each trace shard is placed on
	// (zero: fleet.DefaultReplication; clamped to the cluster size).
	Replication int
	// PeerTimeout bounds one peer request attempt (zero:
	// fleet.DefaultTimeout).
	PeerTimeout time.Duration
	// PeerProbeInterval spaces the background liveness probes (zero:
	// fleet.DefaultProbeInterval; negative: probing disabled).
	PeerProbeInterval time.Duration
}

// DefaultMaxUploadBytes bounds ingest bodies when the configuration
// leaves it zero: comfortably above a full-budget trace (~250 B/job at
// the default 2M-job budget) while capping what one request can buffer.
const DefaultMaxUploadBytes = 1 << 30

// DefaultSlowRequestThreshold is the slow-request log threshold when
// the configuration leaves it zero: well above a warm cache hit or an
// in-memory scan, low enough to surface out-of-core scans that miss
// their pruning.
const DefaultSlowRequestThreshold = 500 * time.Millisecond

// Server owns the trace store, the result cache, and the generation job
// registry, and exposes them over HTTP/JSON:
//
//	GET    /healthz                     liveness
//	GET    /metrics                     Prometheus text exposition
//	GET    /v1/stats                    store + cache + request counters
//	GET    /v1/debug/requests           recent requests with spans (slow-query log)
//	GET    /v1/traces                   list stored traces
//	POST   /v1/traces/{name}            streaming JSONL ingest
//	POST   /v1/traces/{name}/append     live batched JSONL append
//	GET    /v1/traces/{name}            one trace's identity
//	DELETE /v1/traces/{name}            drop a trace (and its segments)
//	GET    /v1/traces/{name}/report     the study's figures/tables (cached;
//	                                    from/to/window select a submit-time slice)
//	GET    /v1/traces/{name}/synth      SWIM synthesis + fidelity (cached)
//	GET    /v1/traces/{name}/replay     simulated replay metrics (cached)
//	POST   /v1/generate                 async calibrated-workload generation
//	GET    /v1/jobs                     list generation jobs
//	GET    /v1/jobs/{id}                one generation job's progress
//	GET    /debug/pprof/                profiling (only with EnablePprof)
type Server struct {
	store     *Store
	cache     *ResultCache
	jobs      *jobRegistry
	mux       *http.ServeMux
	mw        *middleware
	metrics   *serverMetrics
	maxUpload int64
	backing   *storage.Store
	recovered []TraceInfo
	// cluster is the scatter/gather coordinator (nil single-node). With
	// it set the server also exposes the /internal/v1 peer protocol.
	cluster *clusterCoordinator
	logger  *slog.Logger

	// compactStop/compactWG manage the background compaction loop; nil
	// channel means the loop never started.
	compactStop chan struct{}
	compactWG   sync.WaitGroup
}

// New assembles a server. With cfg.DataDir set it opens (creating if
// needed) and recovers the durable store first; recovery results are
// logged through cfg.Logger and available via Recovered.
func New(cfg Config) (*Server, error) {
	maxUpload := cfg.MaxUploadBytes
	if maxUpload <= 0 {
		maxUpload = DefaultMaxUploadBytes
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		store:     NewStore(cfg.MaxTraces, cfg.MaxTotalJobs),
		cache:     NewResultCache(cfg.CacheEntries),
		jobs:      newJobRegistry(),
		mux:       http.NewServeMux(),
		maxUpload: maxUpload,
		logger:    logger,
	}
	if cfg.DataDir != "" {
		backing, rec, err := storage.Open(cfg.DataDir, storage.Options{SegmentJobs: cfg.SegmentJobs})
		if err != nil {
			return nil, fmt.Errorf("server: opening data dir: %w", err)
		}
		s.backing = backing
		s.store.AttachBacking(backing, rec.Traces)
		s.recovered = s.store.List()
		for _, d := range rec.Dropped {
			s.logger.Warn("recovery dropped trace", "trace", d.Name, "reason", d.Reason)
		}
		for _, tr := range rec.Trimmed {
			s.logger.Warn("recovery trimmed uncommitted bytes", "trace", tr.Name, "bytes", tr.Bytes, "file", tr.File)
		}
		s.logger.Info("recovered traces", "count", len(rec.Traces), "dir", cfg.DataDir)
		if cfg.CompactInterval > 0 {
			s.compactStop = make(chan struct{})
			s.compactWG.Add(1)
			go s.compactLoop(cfg.CompactInterval)
		}
	}
	if cfg.Peers != "" {
		peers, err := fleet.ParsePeers(cfg.Peers)
		if err != nil {
			return nil, err
		}
		f, err := fleet.New(fleet.Config{
			NodeID:        cfg.NodeID,
			Peers:         peers,
			Replication:   cfg.Replication,
			Timeout:       cfg.PeerTimeout,
			ProbeInterval: cfg.PeerProbeInterval,
		})
		if err != nil {
			return nil, err
		}
		s.cluster = newClusterCoordinator(s, f)
		if err := s.cluster.restore(); err != nil {
			return nil, err
		}
		// The peer protocol: shard replica writes, binary shard-partial
		// reads, metadata gossip, and cluster cache peeks. Registered only
		// in cluster mode, so a single-node swimd's surface is unchanged.
		s.handle("POST /internal/v1/shards/{name}/{shard}", s.handleShardIngest)
		s.handle("POST /internal/v1/shards/{name}/{shard}/append", s.handleShardAppend)
		s.handle("GET /internal/v1/shards/{name}/{shard}/partial", s.handleShardPartial)
		s.handle("DELETE /internal/v1/shards/{name}/{shard}", s.handleShardDelete)
		s.handle("PUT /internal/v1/meta/{name}", s.handleMetaPut)
		s.handle("GET /internal/v1/meta/{name}", s.handleMetaGet)
		s.handle("DELETE /internal/v1/meta/{name}", s.handleMetaDelete)
		s.handle("GET /internal/v1/cache", s.handleCachePeek)
		s.handle("PUT /internal/v1/cache", s.handleCachePut)
		f.Start()
	}

	// The metrics bundle registers collectors over the store, cache, and
	// (when present) the fleet, so it is built after cluster setup.
	ringSize := cfg.DebugRequests
	if ringSize <= 0 {
		ringSize = obs.DefaultRequestLogSize
	}
	s.metrics = newServerMetrics(s, ringSize)
	slowAfter := cfg.SlowRequestThreshold
	if slowAfter == 0 {
		slowAfter = DefaultSlowRequestThreshold
	} else if slowAfter < 0 {
		slowAfter = 0
	}
	s.mw = &middleware{logger: cfg.Logger, metrics: s.metrics, slowAfter: slowAfter}

	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /v1/debug/requests", s.handleDebugRequests)
	s.handle("GET /v1/traces", s.handleListTraces)
	s.handle("POST /v1/traces/{name}", s.handleIngest)
	s.handle("POST /v1/traces/{name}/append", s.handleAppend)
	s.handle("GET /v1/traces/{name}", s.handleTraceInfo)
	s.handle("DELETE /v1/traces/{name}", s.handleDelete)
	s.handle("GET /v1/traces/{name}/report", s.handleReport)
	s.handle("GET /v1/traces/{name}/synth", s.handleSynth)
	s.handle("GET /v1/traces/{name}/replay", s.handleReplay)
	s.handle("POST /v1/generate", s.handleGenerate)
	s.handle("GET /v1/jobs", s.handleListJobs)
	s.handle("GET /v1/jobs/{id}", s.handleJob)
	if cfg.EnablePprof {
		s.handle("GET /debug/pprof/", pprof.Index)
		s.handle("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.handle("GET /debug/pprof/profile", pprof.Profile)
		s.handle("GET /debug/pprof/symbol", pprof.Symbol)
		s.handle("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// handle registers a route and stamps each matched request's trace with
// the route pattern. The ServeMux sets r.Pattern on its own copy of the
// request, which the outer middleware never sees; stamping inside the
// route wrapper is what lets the middleware label metrics by endpoint.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if rt := obs.FromContext(r.Context()); rt != nil {
			rt.SetEndpoint(pattern)
		}
		h(w, r)
	})
}

// Handler returns the server's HTTP handler with middleware applied.
func (s *Server) Handler() http.Handler {
	return s.mw.wrap(s.mux)
}

// Close flushes nothing — every durable commit syncs before it returns
// — but closes the storage engine so late writers fail fast instead of
// racing a shutdown. Call after the HTTP server has drained (its
// Shutdown waits for in-flight uploads, whose manifests therefore
// commit before this runs).
func (s *Server) Close() error {
	if s.cluster != nil {
		s.cluster.fleet.Close()
	}
	if s.compactStop != nil {
		close(s.compactStop)
		s.compactWG.Wait()
	}
	if s.backing != nil {
		return s.backing.Close()
	}
	return nil
}

// compactLoop sweeps the store on a fixed cadence, rewriting whatever
// storage.NeedsCompaction deems fragmented. Runs until Close; a sweep
// in flight finishes before Close returns, so no rewrite races the
// storage engine's shutdown.
func (s *Server) compactLoop(interval time.Duration) {
	defer s.compactWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.compactStop:
			return
		case <-ticker.C:
			// Sessions idle for a full interval release their traces to
			// this sweep; active feeds keep refreshing lastBatch and stay
			// exempt.
			s.store.ReapIdleAppendSessions(interval)
			sweepStart := time.Now()
			n, err := s.store.Compact()
			if err != nil {
				s.logger.Warn("compaction sweep failed", "error", err)
			}
			if n > 0 {
				s.logger.Info("compacted traces", "count", n, "duration", time.Since(sweepStart).Round(time.Millisecond))
			}
		}
	}
}

// Recovered lists the traces the durable store restored at startup.
func (s *Server) Recovered() []TraceInfo { return s.recovered }

// Store exposes the trace store (for preloading at startup and tests).
func (s *Server) Store() *Store { return s.store }

// Cache exposes the result cache (for stats and tests).
func (s *Server) Cache() *ResultCache { return s.cache }
