// Command swimd serves the study's workload analytics as a long-running
// HTTP/JSON service: named traces live in a concurrent in-memory store
// (uploaded as JSONL streams, appended in live batches, or generated on
// demand from the calibrated profiles) and every report, synthesis, and
// replay result is memoized in a fingerprint-keyed, single-flight
// cache, so concurrent identical requests compute once and repeats are
// served in microseconds. With -data the store is durable: traces
// persist as columnar (colseg) segments with partial-aggregate
// snapshots, and a data dir left by an older release with JSONL
// segments is converted to colseg once at startup.
//
//	swimd -addr :8080 -preload FB-2009,CC-b -preload-duration 168h
//	swimd -addr :8080 -data ./swim-data -compact 10m
//
//	curl localhost:8080/healthz
//	curl -X POST --data-binary @cc-b.jsonl localhost:8080/v1/traces/mine
//	curl -X POST --data-binary @batch.jsonl localhost:8080/v1/traces/mine/append
//	curl localhost:8080/v1/traces/mine/report | jq .summary
//	curl 'localhost:8080/v1/traces/mine/report?window=6h' | jq .summary
//	curl localhost:8080/v1/stats | jq .cache
//
// See README.md ("Serving the analytics: swimd") for the endpoint tour.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	swim "repro"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil, nil); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "swimd: %v\n", err)
		os.Exit(2)
	}
}

// run is the testable body: it parses args, preloads, listens, and
// serves until stop is closed or a termination signal arrives. The
// bound address is sent on ready (if non-nil) once the listener is up.
func run(args []string, stdout, stderr io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("swimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		maxTraces    = fs.Int("max-traces", 0, "trace store capacity in traces (0 = default 64)")
		maxJobs      = fs.Int("max-total-jobs", 0, "trace store capacity in total jobs (0 = default 2M)")
		cacheSize    = fs.Int("cache-entries", 0, "result cache capacity (0 = default 256)")
		preload      = fs.String("preload", "", "comma-separated workloads to generate and store at startup: "+strings.Join(swim.Workloads(), ", "))
		preloadDur   = fs.Duration("preload-duration", 48*time.Hour, "duration of preloaded traces")
		seed         = fs.Int64("seed", 1, "preload generation seed")
		dataDir      = fs.String("data", "", "durable storage directory: traces persist as checksummed columnar segment files with partial-aggregate snapshots, survive restarts (verified at startup; legacy JSONL segments are converted to colseg once), and spill to disk instead of being rejected when they exceed the in-memory job budget")
		compactEvery = fs.Duration("compact", 0, "background compaction sweep interval: fragmented traces (many small segments or underfilled columnar blocks, the shape long append sessions leave) are rewritten into packed generations with identical fingerprints; 0 disables, needs -data")
		quiet        = fs.Bool("quiet", false, "disable server logging")
		slowReq      = fs.Duration("slow-request", 0, "latency at which a request is logged as slow and counted in swim_http_slow_requests_total (0 = default 500ms, negative disables)")
		pprofOn      = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in: the profile endpoints expose process internals)")
		debugReqs    = fs.Int("debug-requests", 0, "recent-request ring size served by /v1/debug/requests (0 = default 256)")
		nodeID       = fs.String("node-id", "", "this node's identity in -peers (cluster mode)")
		peersList    = fs.String("peers", "", "cluster membership as id=url,id=url,... including this node; empty runs single-node")
		replicas     = fs.Int("replication", 0, "replica owners per trace shard (0 = default 2, clamped to the cluster size)")
		cshards      = fs.Int("cluster-shards", 0, "shard count for newly ingested cluster traces (0 = one per member)")
		peerTO       = fs.Duration("peer-timeout", 0, "one peer request attempt's timeout (0 = default 10s)")
		drainTO      = fs.Duration("drain-timeout", 5*time.Second, "how long shutdown waits for in-flight requests before force-closing connections")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(stderr, nil))
	}
	if *peersList != "" && *nodeID == "" {
		return fmt.Errorf("-peers requires -node-id")
	}
	if *compactEvery > 0 && *dataDir == "" {
		return fmt.Errorf("-compact requires -data (compaction rewrites on-disk segments)")
	}
	srv, err := server.New(server.Config{
		MaxTraces:            *maxTraces,
		MaxTotalJobs:         *maxJobs,
		CacheEntries:         *cacheSize,
		DataDir:              *dataDir,
		CompactInterval:      *compactEvery,
		Logger:               logger,
		SlowRequestThreshold: *slowReq,
		EnablePprof:          *pprofOn,
		DebugRequests:        *debugReqs,
		Peers:                *peersList,
		NodeID:               *nodeID,
		Replication:          *replicas,
		ClusterShards:        *cshards,
		PeerTimeout:          *peerTO,
	})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		recovered := srv.Recovered()
		fmt.Fprintf(stdout, "swimd: durable store %s: recovered %d trace(s)\n", *dataDir, len(recovered))
		for _, info := range recovered {
			fmt.Fprintf(stdout, "  %s: %d jobs, fingerprint %.12s…\n", info.Name, info.Jobs, info.Fingerprint)
		}
	}

	if *preload != "" {
		for _, name := range strings.Split(*preload, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			start := time.Now()
			tr, err := swim.Generate(swim.GenerateOptions{Workload: name, Seed: *seed, Duration: *preloadDur})
			if err != nil {
				return fmt.Errorf("preloading %s: %w", name, err)
			}
			info, err := srv.Store().Put(name, tr)
			if err != nil {
				return fmt.Errorf("preloading %s: %w", name, err)
			}
			fmt.Fprintf(stdout, "preloaded %s: %d jobs over %v, fingerprint %.12s… (%v)\n",
				name, info.Jobs, *preloadDur, info.Fingerprint, time.Since(start).Round(time.Millisecond))
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "swimd: serving on %s\n", ln.Addr())
	if *peersList != "" {
		fmt.Fprintf(stdout, "swimd: cluster node %s of %s\n", *nodeID, *peersList)
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Slow-client protection for a long-running service: bound how long
	// headers may trickle in and how long idle keep-alives are held.
	// No whole-request ReadTimeout — large trace uploads are legitimate
	// long requests.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	case <-ctx.Done():
	case <-stopOrNever(stop):
	}
	fmt.Fprintln(stdout, "swimd: shutting down")
	// Shutdown drains in-flight requests first — an upload mid-stream
	// finishes decoding and commits its manifest — then the durable
	// store is closed so nothing can start a write after the drain.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), *drainTO)
	defer shutCancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		// The grace period is for in-flight requests; what's left now is
		// stragglers — e.g. a peer's HTTP transport dialed a spare
		// connection and never sent a request on it, which Shutdown will
		// not reap while young. Force-close them rather than abandon the
		// shutdown: the durable store below must still be closed cleanly.
		fmt.Fprintln(stdout, "swimd: drain timed out, closing remaining connections")
		hs.Close()
	}
	<-done // Serve has returned http.ErrServerClosed
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "swimd: durable state flushed, bye")
	return nil
}

// stopOrNever turns a possibly-nil channel into one that never fires
// when nil, so the select above stays simple.
func stopOrNever(stop <-chan struct{}) <-chan struct{} {
	if stop != nil {
		return stop
	}
	return make(chan struct{})
}
