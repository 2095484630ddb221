package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/synth"
	"repro/internal/trace"
)

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeErr maps an error to its HTTP status and writes the payload.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrAppendConflict), errors.Is(err, errReplaced):
		status = http.StatusConflict
	case errors.Is(err, ErrStoreFull):
		status = http.StatusInsufficientStorage
	case errors.Is(err, errBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, errUnprocessable), errors.Is(err, ErrTooLarge):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, errUpstream):
		status = http.StatusBadGateway
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// errBadRequest / errUnprocessable are sentinel wrappers for status
// mapping: bad input syntax vs a trace the requested computation cannot
// run on (e.g. too short for hourly binning).
var (
	errBadRequest    = errors.New("bad request")
	errUnprocessable = errors.New("unprocessable")
	// errUpstream marks a cluster operation that failed because peers
	// were unreachable, not because the request was wrong: 502.
	errUpstream = errors.New("cluster upstream failure")
)

func badReq(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadRequest, fmt.Sprintf(format, args...))
}

// writeUploadErr answers a failed upload or append, on the public and
// the shard routes alike: an over-limit body is ErrStoreFull (507), the
// store's and the cluster's own sentinels keep their statuses, and any
// other failure is the client's input (400).
func writeUploadErr(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		err = fmt.Errorf("%w: body exceeds the %d-byte limit", ErrStoreFull, tooLarge.Limit)
	case errors.Is(err, ErrStoreFull), errors.Is(err, ErrAppendConflict),
		errors.Is(err, errUpstream), errors.Is(err, errBadRequest):
	default:
		err = badReq("%v", err)
	}
	writeErr(w, err)
}

// queryBool parses a boolean query parameter strictly: anything outside
// {"", "0", "1", "true", "false", "yes", "no"} is a 400, not a silent
// false — a misspelled ?ful=1 or ?sketch=ture must not quietly serve
// the wrong report variant.
func queryBool(params url.Values, key string) (bool, error) {
	switch v := params.Get(key); v {
	case "1", "true", "yes":
		return true, nil
	case "", "0", "false", "no":
		return false, nil
	default:
		return false, badReq("parameter %s=%q is not a boolean (use 0/1/true/false/yes/no)", key, v)
	}
}

// queryTime parses a timestamp query parameter: integer unix seconds or
// RFC3339. The zero time means absent.
func queryTime(params url.Values, key string) (time.Time, error) {
	s := params.Get(key)
	if s == "" {
		return time.Time{}, nil
	}
	if sec, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Unix(sec, 0).UTC(), nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, badReq("parameter %s=%q is neither unix seconds nor RFC3339", key, s)
	}
	return t, nil
}

// queryInt parses an integer query parameter with a default.
func queryInt(params url.Values, key string, def int) (int, error) {
	s := params.Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, badReq("parameter %s=%q is not an integer", key, s)
	}
	return v, nil
}

// queryInt64 parses an int64 query parameter with a default.
func queryInt64(params url.Values, key string, def int64) (int64, error) {
	s := params.Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, badReq("parameter %s=%q is not an integer", key, s)
	}
	return v, nil
}

// queryFloat parses a float query parameter with a default.
func queryFloat(params url.Values, key string, def float64) (float64, error) {
	s := params.Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, badReq("parameter %s=%q is not a number", key, s)
	}
	return v, nil
}

// queryDuration parses a duration query parameter with a default.
func queryDuration(params url.Values, key string, def time.Duration) (time.Duration, error) {
	s := params.Get(key)
	if s == "" {
		return def, nil
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return 0, badReq("parameter %s=%q is not a duration", key, s)
	}
	return v, nil
}

// handleHealthz reports liveness. A cluster node that currently marks
// any peer unreachable answers "degraded" (still 200 — the node itself
// is up and serving, possibly with replica fallback) and names the
// down peers.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.cluster != nil {
		if down := s.cluster.fleet.Down(); len(down) > 0 {
			writeJSON(w, http.StatusOK, map[string]any{"status": "degraded", "down": down})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ClusterStats is the cluster section of /v1/stats: the fleet's peer
// liveness, transport latency, and protocol counters, plus how many
// distributed traces this node knows and how many shard replicas it
// stores locally.
type ClusterStats struct {
	fleet.Stats
	Traces      int `json:"traces"`
	LocalShards int `json:"local_shards"`
}

// StatsResponse is the GET /v1/stats payload: the server's identity
// and runtime alongside the store/cache/request counters, per-endpoint
// and per-analysis-path request series, and the per-trace storage
// shape. The same instruments back GET /metrics.
type StatsResponse struct {
	Server    ServerInfo                      `json:"server"`
	Runtime   obs.RuntimeStats                `json:"runtime"`
	Store     StoreStats                      `json:"store"`
	Cache     CacheStats                      `json:"cache"`
	Requests  RequestStats                    `json:"requests"`
	Endpoints map[string]EndpointStats        `json:"endpoints,omitempty"`
	Analysis  map[string]obs.HistogramSummary `json:"analysis,omitempty"`
	Storage   []TraceStorage                  `json:"storage,omitempty"`
	Cluster   *ClusterStats                   `json:"cluster,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Server:    s.metrics.serverInfo(),
		Runtime:   obs.ReadRuntimeStats(),
		Store:     s.store.Stats(),
		Cache:     s.cache.Stats(),
		Requests:  s.mw.stats(),
		Endpoints: s.metrics.endpointStats(),
		Analysis:  s.metrics.analysisLatency.Snapshot(),
		Storage:   s.store.StorageGauges(),
	}
	if s.cluster != nil {
		resp.Cluster = s.cluster.stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleListTraces lists what this node serves publicly: its local
// traces plus every distributed trace it knows. Shard replicas (the
// ".fleet/" names) are placement internals and are hidden.
func (s *Server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	list := s.store.List()
	if s.cluster != nil {
		list = s.cluster.mergeList(list)
	}
	writeJSON(w, http.StatusOK, map[string][]TraceInfo{"traces": list})
}

// handleIngest streams a JSONL trace upload into the store: jobs are
// decoded one line at a time straight off the request body, so the only
// full-size allocation is the stored trace itself, and oversized uploads
// are rejected mid-stream.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Cap the raw bytes too: the line reader is deliberately uncapped
	// per line, so without this a newline-free body would be buffered
	// whole before the job-count budget could apply.
	body := http.MaxBytesReader(w, r.Body, s.maxUpload)
	src, err := trace.NewJSONLReader(body)
	if err != nil {
		writeErr(w, badReq("decoding upload: %v", err))
		return
	}
	var info TraceInfo
	endIngest := obs.FromContext(r.Context()).StartSpan("ingest", "trace="+name)
	if s.cluster != nil {
		// Cluster mode: split the upload into shards and fan them out to
		// their ring owners instead of storing it whole here.
		info, err = s.cluster.ingest(r.Context(), name, src)
	} else {
		info, err = s.store.Ingest(name, src)
	}
	endIngest()
	if err != nil {
		writeUploadErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// AppendResponse is the POST /v1/traces/{name}/append payload: the
// trace's new identity plus how many jobs this batch added.
type AppendResponse struct {
	TraceInfo
	Appended int `json:"appended"`
}

// handleAppend streams one JSONL batch into a live trace: the first
// batch (with complete metadata) creates the trace, later batches grow
// it, and after every batch the trace is fully committed — fingerprint,
// aggregate, durable segments — exactly as if the whole prefix had been
// uploaded at once. Batches must not precede the committed tail in
// (submit time, id) order; violations (and metadata contradictions, and
// losing a race with a re-upload or delete) are 409s.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.cluster != nil {
		if e, ok := s.cluster.resolve(r.Context(), name); ok {
			// A known distributed trace: route the batch through its home
			// node, which serializes appends and extends the cluster
			// fingerprint. Unknown names fall through to the local path —
			// distributed traces are created by POST, not by append.
			s.cluster.append(w, r, e)
			return
		}
	}
	body := http.MaxBytesReader(w, r.Body, s.maxUpload)
	src, err := trace.NewJSONLReader(body)
	if err != nil {
		writeErr(w, badReq("decoding append: %v", err))
		return
	}
	info, appended, prevFP, err := s.store.Append(name, src)
	if err != nil {
		writeUploadErr(w, err)
		return
	}
	// The batch retired the trace's previous fingerprint; drop its
	// memoized results unless another stored trace still has that
	// content (fingerprint-keyed entries are never stale, this is
	// reclaiming memory the old version can no longer earn back).
	if prevFP != "" && prevFP != info.Fingerprint && !s.store.HasFingerprint(prevFP) {
		s.cache.InvalidatePrefix(prevFP + "|")
	}
	writeJSON(w, http.StatusOK, AppendResponse{TraceInfo: info, Appended: appended})
}

func (s *Server) handleTraceInfo(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.cluster != nil {
		if e, ok := s.cluster.resolve(r.Context(), name); ok {
			writeJSON(w, http.StatusOK, e.snapshot().info())
			return
		}
	}
	v, err := s.store.View(name)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v.Info)
}

// handleDelete removes a trace and, when no other stored trace shares
// its content fingerprint, drops the fingerprint's memoized results and
// partial aggregates from both cache tiers — fingerprint-keyed entries
// can never be stale, so this is reclaiming memory a deleted trace can
// no longer earn back, not a correctness step.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.cluster != nil {
		if e, ok := s.cluster.resolve(r.Context(), name); ok {
			s.cluster.delete(r.Context(), e)
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
	info, ok := s.store.Delete(name)
	if !ok {
		writeErr(w, fmt.Errorf("%w: %q", ErrNotFound, name))
		return
	}
	if !s.store.HasFingerprint(info.Fingerprint) {
		s.cache.InvalidatePrefix(info.Fingerprint + "|")
	}
	w.WriteHeader(http.StatusNoContent)
}

// serveCached runs compute through the single-flight result cache and
// writes the bytes with an X-Cache marker.
func (s *Server) serveCached(w http.ResponseWriter, key string, compute func() ([]byte, error)) {
	body, cached, err := s.cache.Do(key, compute)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeCached(w, body, cached)
}

// writeCached writes a result-cache answer: X-Cache says whether the
// bytes were memoized (or coalesced) rather than computed here.
func writeCached(w http.ResponseWriter, body []byte, cached bool) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if cached {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleReport serves the study's analytics for one stored trace:
// Table 1, Figure 1, Figures 7-9, and Figure 10 in the default
// streaming-section mode; every figure and table the trace permits
// (including the Table-2 clustering) with full=1. sketch=1 bounds
// Figure 1's memory with quantile sketches; top=N widens the Figure 10
// word list; from/to/window restrict it to a submit-time slice.
//
// Every report, local or distributed, runs one pipeline: parse the
// request into a reportQuery, look its key up in the result cache, and
// on a miss resolve a partial aggregate (partialFor here, scatter/gather
// for a distributed trace), finalize and marshal it (finishReport), and
// write it (writeCached). The X-Analysis response header names the path
// a MISS took; DESIGN.md's "Report pipeline" table lists them.
//
// full=1 finalizes the same partial and adds the sections that need
// every job at once (Figures 2–6, Table 2) from the trace's jobs, so a
// disk-resident trace is reloaded into the hot tier first; a trace
// bigger than the whole tier cannot be, and such requests fail 422
// while the streaming modes keep working.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.cluster != nil {
		if e, ok := s.cluster.resolve(r.Context(), name); ok {
			s.cluster.report(w, r, e)
			return
		}
	}
	v, err := s.store.View(name)
	if err != nil {
		writeErr(w, err)
		return
	}
	q, err := parseReportQuery(r, v.spanStart(), v.Info.LengthMS)
	if err != nil {
		writeErr(w, err)
		return
	}
	rt := obs.FromContext(r.Context())
	s.serveCached(w, q.key(v.Info.Fingerprint), func() ([]byte, error) {
		return s.computeReport(w, rt, v, q)
	})
}

// computeReport is a report miss on a stored trace: the partial
// partialFor resolves, finalized and marshaled. For full=1 the jobs of
// the trace-only sections are v's own, resident or reloaded from v's
// generation, never what the name holds by now, since the bytes are
// cached under v's fingerprint. The reload comes first, so a trace too
// big for the hot tier fails before any scan, and a partial the request
// must build is observed from the reloaded jobs.
func (s *Server) computeReport(w http.ResponseWriter, rt *obs.Request, v View, q reportQuery) ([]byte, error) {
	var full *trace.Trace // the jobs of the trace-only sections
	if q.full {
		var err error
		if full, _, err = s.store.load(v); err != nil {
			return nil, err
		}
		v.Trace = full
	}
	p, analysis, ev, err := s.partialFor(rt, v, q)
	if err != nil {
		return nil, err
	}
	if q.full {
		analysis = "full"
	}
	return finishReport(w, rt, p, q.top, analysis, ev, full)
}

// reportQuery is one report request's parameters, parsed once for
// every source: the variant (full, sketch, top) and the submit-time
// window [from, to) when windowed.
type reportQuery struct {
	full, sketch bool
	top          int
	windowed     bool
	from, to     time.Time
}

// parseReportQuery parses and validates a report request against the
// span of the trace it asks about, decoding the URL query once (it runs
// before every cache lookup). The cluster peer protocol uses it
// too: a coordinator forwards sketch/from/to to the shard owners.
func parseReportQuery(r *http.Request, start time.Time, lengthMS int64) (q reportQuery, err error) {
	params := r.URL.Query()
	if q.full, err = queryBool(params, "full"); err != nil {
		return q, err
	}
	if q.sketch, err = queryBool(params, "sketch"); err != nil {
		return q, err
	}
	if q.top, err = queryInt(params, "top", 8); err != nil {
		return q, err
	}
	if q.top < 1 {
		return q, badReq("parameter top=%d must be at least 1", q.top)
	}
	if q.from, q.to, q.windowed, err = reportWindowSpan(params, start, lengthMS); err != nil {
		return q, err
	}
	if q.windowed && q.full {
		return q, badReq("full=1 needs the whole trace and cannot combine with from/to/window")
	}
	return q, nil
}

// windowKey is the cache-key suffix naming the query's window ("" for
// the whole trace) in Unix nanoseconds, so windows whose bounds differ
// by less than a second keep apart. The bounds are clamped to the
// trace span, which trace.CheckNanoRange keeps within int64
// nanoseconds.
func (q reportQuery) windowKey() string {
	if !q.windowed {
		return ""
	}
	return fmt.Sprintf("|win=%d-%d", q.from.UnixNano(), q.to.UnixNano())
}

// key is the result-cache key of the query's report for a trace
// fingerprint.
func (q reportQuery) key(fingerprint string) string {
	return fmt.Sprintf("%s|report|full=%t|sketch=%t|top=%d%s", fingerprint, q.full, q.sketch, q.top, q.windowKey())
}

// partialFor resolves the partial aggregate a report query finalizes
// from a stored trace. A whole-trace query uses the frozen partial when
// its mode matches; every other query builds one for this request
// alone: the resident jobs are observed in memory, a disk-resident
// trace is scanned out-of-core with segments and blocks pruned to the
// window. A built partial serves one report and is thrown away — the
// result cache keeps report bytes, not partials — so it is not frozen:
// finalize answers its unsorted Figure 1 columns by bucket-and-select
// (stats.SampleCDF) instead of sorting them. A caller that keeps or
// ships the partial freezes it first. The build is rt's core.observe
// or storage.scan span; a stored partial records no span. It returns
// the path's X-Analysis name and, when this call scanned disk, the
// scan evidence. The partial may be shared frozen state: callers must
// treat it as read-only, Freeze aside, which leaves a frozen partial
// untouched.
func (s *Server) partialFor(rt *obs.Request, v View, q reportQuery) (*core.Partial, string, *scanEvidence, error) {
	if !q.windowed && v.Partial != nil && v.Partial.Sketch() == q.sketch {
		if v.Recovered {
			return v.Partial, "recovered-partial", nil, nil
		}
		return v.Partial, "ingest-partial", nil, nil
	}
	var (
		p   *core.Partial
		ev  *scanEvidence
		err error
	)
	analysis := scanAnalysis(q.windowed, v.Trace == nil)
	if v.Trace != nil {
		t := v.Trace
		if q.windowed {
			t = t.Window(q.from, q.to.Sub(q.from))
		}
		endObserve := rt.StartSpan("core.observe", "path="+analysis)
		p, err = core.BuildTracePartial(t, 0, q.sketch)
		endObserve()
	} else {
		// One IO goroutine frames colseg blocks, one decode worker per
		// CPU turns them into partials, merged in block order: the bytes
		// are identical at any worker count.
		opts := storage.ParallelScanOptions{Sketch: q.sketch}
		if q.windowed {
			opts.Window, opts.From, opts.To = true, q.from, q.to
			opts.Meta = trace.Meta{
				Name:     v.Info.Workload,
				Machines: v.Info.Machines,
				Start:    q.from,
				Length:   q.to.Sub(q.from),
			}
		}
		var stats *storage.ScanStats
		endScan := rt.StartSpan("storage.scan", "path="+analysis)
		p, stats, err = s.scanStored(v, opts)
		endScan()
		if err == nil {
			ev = &scanEvidence{
				segments:       stats.Segments,
				segmentsPruned: stats.SegmentsPruned,
				blocks:         stats.BlocksRead(),
				blocksPruned:   stats.BlocksPruned(),
			}
		}
	}
	if err != nil {
		return nil, "", nil, fmt.Errorf("%w: %w", errUnprocessable, err) // a stale view keeps its 404 or 409
	}
	return p, analysis, ev, nil
}

// scanAnalysis names a partial built for one request: the resident jobs
// observed or the segments on disk scanned, each for the whole trace or
// a window.
func scanAnalysis(windowed, disk bool) string {
	switch {
	case disk && windowed:
		return "window-disk-scan"
	case disk:
		return "disk-scan"
	case windowed:
		return "window-scan"
	}
	return "scan"
}

// finishReport is the shared tail of every report miss, single-node
// and scatter/gather alike: it stamps the path the partial came from
// (X-Analysis, X-Scan-*), finalizes the partial, adds the trace-only
// sections from t's jobs when t is given (full=1), and marshals the
// report.
func finishReport(w http.ResponseWriter, rt *obs.Request, p *core.Partial, top int, analysis string, ev *scanEvidence, t *trace.Trace) ([]byte, error) {
	w.Header().Set("X-Analysis", analysis)
	ev.addTo(w.Header())
	endFinalize := rt.StartSpan("core.finalize", "path="+analysis)
	rep, err := p.Report(top)
	endFinalize()
	if err == nil && t != nil {
		endAnalyze := rt.StartSpan("core.analyze", "")
		err = rep.AddTraceSections(t, core.AnalyzeOptions{})
		endAnalyze()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errUnprocessable, err)
	}
	return marshalReport(rt, rep)
}

// marshalReport renders a finished report as its response body: it
// encodes into a pooled scratch buffer and returns an exact-size copy,
// so a body the result cache keeps carries no slack capacity.
func marshalReport(rt *obs.Request, rep *core.Report) ([]byte, error) {
	endMarshal := rt.StartSpan("core.marshal", "")
	defer endMarshal()
	scratch := reportScratch.Get().(*[]byte)
	defer reportScratch.Put(scratch)
	b, err := rep.AppendJSON((*scratch)[:0])
	if err != nil {
		return nil, err
	}
	if cap(b) <= maxReportScratch {
		*scratch = b
	}
	body := make([]byte, len(b))
	copy(body, b)
	return body, nil
}

// reportScratch pools marshalReport's encode buffers. A buffer grown
// past maxReportScratch (a full report of a trace with many distinct
// paths) is not kept.
var reportScratch = sync.Pool{New: func() any { return new([]byte) }}

const maxReportScratch = 1 << 20

// scanStored runs the block-parallel disk scan for a view, retried
// once on a compaction sweep (Store.readStored).
func (s *Server) scanStored(v View, opts storage.ParallelScanOptions) (p *core.Partial, stats *storage.ScanStats, err error) {
	err = s.store.readStored(v, func(st *storage.Trace) (err error) {
		p, stats, err = st.ParallelScanPartial(opts)
		return err
	})
	return p, stats, err
}

// reportWindowSpan resolves a report request's from/to/window
// parameters against the trace span [start, start+lengthMS). window=D
// means the trailing D of the trace ([end-D, end]) and is exclusive
// with explicit bounds; a lone from runs to the trace end, a lone to
// starts at the trace start. Returns windowed=false when no window
// parameter is present.
//
// The window is clamped to the span, so memory, disk and cluster all
// answer a bound past the trace with the bins of the trace itself (a
// disk scan would otherwise overflow time.Duration on a far-out bound);
// a window that misses the span entirely is a 400.
func reportWindowSpan(params url.Values, start time.Time, lengthMS int64) (from, to time.Time, windowed bool, err error) {
	from, err = queryTime(params, "from")
	if err != nil {
		return
	}
	to, err = queryTime(params, "to")
	if err != nil {
		return
	}
	window, err := queryDuration(params, "window", 0)
	if err != nil {
		return
	}
	windowed = !from.IsZero() || !to.IsZero() || window != 0
	if !windowed {
		return
	}
	end := start.Add(time.Duration(lengthMS) * time.Millisecond)
	switch {
	case window < 0:
		err = badReq("window=%s is negative", window)
	case window > 0 && (!from.IsZero() || !to.IsZero()):
		err = badReq("window is the trailing span of the trace and cannot combine with from/to")
	case window > 0:
		to = end
		from = end.Add(-window)
	default:
		if from.IsZero() {
			from = start
		}
		if to.IsZero() {
			to = end
		}
	}
	if err != nil {
		return
	}
	if !to.After(from) {
		err = badReq("empty window: from=%s is not before to=%s",
			from.Format(time.RFC3339), to.Format(time.RFC3339))
		return
	}
	if from.Before(start) {
		from = start
	}
	if to.After(end) {
		to = end
	}
	if !to.After(from) {
		err = badReq("window misses the trace span [%s, %s)",
			start.Format(time.RFC3339), end.Format(time.RFC3339))
	}
	return
}

// scanEvidence carries one out-of-core scan's pruning counters, the
// X-Scan-* response headers. The cluster coordinator sums them across
// shard owners so a scatter/gather window report carries the same
// evidence a single-node report would.
type scanEvidence struct {
	segments       int
	segmentsPruned int
	blocks         int64
	blocksPruned   int64
}

// addTo sets the X-Scan-* headers (nil evidence sets nothing — the
// scan did not touch disk).
func (ev *scanEvidence) addTo(h http.Header) {
	if ev == nil {
		return
	}
	h.Set("X-Scan-Segments", strconv.Itoa(ev.segments))
	h.Set("X-Scan-Segments-Pruned", strconv.Itoa(ev.segmentsPruned))
	h.Set("X-Scan-Blocks", strconv.FormatInt(ev.blocks, 10))
	h.Set("X-Scan-Blocks-Pruned", strconv.FormatInt(ev.blocksPruned, 10))
}

// merge sums another scan's counters into this one; either may be nil.
func (ev *scanEvidence) merge(o *scanEvidence) *scanEvidence {
	if o == nil {
		return ev
	}
	if ev == nil {
		cp := *o
		return &cp
	}
	ev.segments += o.segments
	ev.segmentsPruned += o.segmentsPruned
	ev.blocks += o.blocks
	ev.blocksPruned += o.blocksPruned
	return ev
}

// parseScanEvidence reads X-Scan-* headers back into counters (nil
// when the response carries none) — the gather half of the evidence
// aggregation.
func parseScanEvidence(h http.Header) *scanEvidence {
	if h.Get("X-Scan-Segments") == "" {
		return nil
	}
	ev := &scanEvidence{}
	ev.segments, _ = strconv.Atoi(h.Get("X-Scan-Segments"))
	ev.segmentsPruned, _ = strconv.Atoi(h.Get("X-Scan-Segments-Pruned"))
	ev.blocks, _ = strconv.ParseInt(h.Get("X-Scan-Blocks"), 10, 64)
	ev.blocksPruned, _ = strconv.ParseInt(h.Get("X-Scan-Blocks-Pruned"), 10, 64)
	return ev
}

// FidelityJSON is the wire form of a synthesis fidelity score.
type FidelityJSON struct {
	InputKS         float64 `json:"input_ks"`
	ShuffleKS       float64 `json:"shuffle_ks"`
	OutputKS        float64 `json:"output_ks"`
	TaskTimeKS      float64 `json:"task_time_ks"`
	WorstExcess     float64 `json:"worst_excess"`
	PeakToMedianRel float64 `json:"peak_to_median_rel"`
}

// SynthResponse is the GET /v1/traces/{name}/synth payload. The
// synthetic summary reuses core's Table-1 wire row.
type SynthResponse struct {
	Source    TraceInfo        `json:"source"`
	Synthetic core.SummaryJSON `json:"synthetic"`
	Fidelity  FidelityJSON     `json:"fidelity"`
	StoredAs  *TraceInfo       `json:"stored_as,omitempty"`
}

// handleSynth wraps the SWIM synthesizer: sample the stored trace down
// to length (and optionally rescale from source_machines to
// target_machines), score fidelity against the source, and — with
// store=<newname> — keep the synthetic trace for further queries.
func (s *Server) handleSynth(w http.ResponseWriter, r *http.Request) {
	if err := s.rejectClusterTrace(r); err != nil {
		writeErr(w, err)
		return
	}
	t, info, err := s.store.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	params := r.URL.Query()
	length, err := queryDuration(params, "length", 24*time.Hour)
	if err != nil {
		writeErr(w, err)
		return
	}
	window, err := queryDuration(params, "window", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	srcMachines, err := queryInt(params, "source_machines", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	dstMachines, err := queryInt(params, "target_machines", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	seed, err := queryInt64(params, "seed", 1)
	if err != nil {
		writeErr(w, err)
		return
	}
	storeAs := params.Get("store")

	compute := func() ([]byte, error) {
		cfg := synth.Config{
			TargetLength:   length,
			WindowLength:   window,
			SourceMachines: srcMachines,
			TargetMachines: dstMachines,
			Seed:           seed,
		}
		syn, err := synth.Synthesize(t, cfg)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errUnprocessable, err)
		}
		fid, err := synth.Compare(t, syn)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errUnprocessable, err)
		}
		sum := syn.Summarize()
		resp := SynthResponse{
			Source: info,
			Synthetic: core.SummaryJSON{
				Name:       sum.Name,
				Machines:   sum.Machines,
				Jobs:       sum.Jobs,
				LengthMS:   sum.Length.Milliseconds(),
				BytesMoved: int64(sum.BytesMoved),
			},
			Fidelity: FidelityJSON{
				InputKS:         fid.Input.KS,
				ShuffleKS:       fid.Shuffle.KS,
				OutputKS:        fid.Output.KS,
				TaskTimeKS:      fid.TaskTime.KS,
				WorstExcess:     fid.WorstExcess(),
				PeakToMedianRel: fid.PeakToMedianRel,
			},
		}
		if storeAs != "" {
			stored, err := s.store.Put(storeAs, syn)
			if err != nil {
				return nil, err
			}
			resp.StoredAs = &stored
		}
		return json.Marshal(resp)
	}

	if storeAs != "" {
		// Storing is a side effect; run it uncached so a repeat request
		// re-stores (e.g. after a delete) instead of replaying a memo.
		body, err := compute()
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "BYPASS")
		_, _ = w.Write(body)
		return
	}
	key := fmt.Sprintf("%s|synth|len=%s|win=%s|sm=%d|tm=%d|seed=%d",
		info.Fingerprint, length, window, srcMachines, dstMachines, seed)
	s.serveCached(w, key, compute)
}

// ReplayResponse is the GET /v1/traces/{name}/replay payload.
type ReplayResponse struct {
	Source           TraceInfo `json:"source"`
	Scheduler        string    `json:"scheduler"`
	Completed        int       `json:"completed"`
	TotalSlots       int       `json:"total_slots"`
	MakespanSec      float64   `json:"makespan_sec"`
	MedianLatencySec float64   `json:"median_latency_sec"`
	MeanLatencySec   float64   `json:"mean_latency_sec"`
	P99LatencySec    float64   `json:"p99_latency_sec"`
	HourlyOccupancy  []float64 `json:"hourly_occupancy"`
}

// handleReplay wraps the discrete-event cluster simulator: replay the
// stored trace on a simulated cluster and report latency quantiles and
// the hourly slot-occupancy series.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	if err := s.rejectClusterTrace(r); err != nil {
		writeErr(w, err)
		return
	}
	t, info, err := s.store.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	params := r.URL.Query()
	nodes, err := queryInt(params, "nodes", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	mapSlots, err := queryInt(params, "map_slots", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	reduceSlots, err := queryInt(params, "reduce_slots", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	stragglers, err := queryFloat(params, "stragglers", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Factor defaults to the swimreplay CLI's 5x so ?stragglers= works
	// on its own (the simulator rejects prob>0 with factor<1).
	factor, err := queryFloat(params, "straggler_factor", 5)
	if err != nil {
		writeErr(w, err)
		return
	}
	seed, err := queryInt64(params, "seed", 1)
	if err != nil {
		writeErr(w, err)
		return
	}
	var sched cluster.SchedulerKind
	switch params.Get("scheduler") {
	case "", "fifo":
		sched = cluster.FIFO
	case "fair":
		sched = cluster.Fair
	default:
		writeErr(w, badReq("unknown scheduler %q (use fifo or fair)", params.Get("scheduler")))
		return
	}
	if nodes == 0 {
		nodes = t.Meta.Machines
	}

	key := fmt.Sprintf("%s|replay|n=%d|ms=%d|rs=%d|sched=%d|sp=%g|sf=%g|seed=%d",
		info.Fingerprint, nodes, mapSlots, reduceSlots, sched, stragglers, factor, seed)
	s.serveCached(w, key, func() ([]byte, error) {
		res, err := cluster.Run(t, cluster.Config{
			Nodes:              nodes,
			MapSlotsPerNode:    mapSlots,
			ReduceSlotsPerNode: reduceSlots,
			Scheduler:          sched,
			StragglerProb:      stragglers,
			StragglerFactor:    factor,
			Seed:               seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errUnprocessable, err)
		}
		return json.Marshal(ReplayResponse{
			Source:           info,
			Scheduler:        res.Scheduler.String(),
			Completed:        res.Completed,
			TotalSlots:       res.TotalSlots,
			MakespanSec:      res.MakespanSec,
			MedianLatencySec: res.MedianLatency(),
			MeanLatencySec:   res.MeanLatency(),
			P99LatencySec:    res.P99Latency(),
			HourlyOccupancy:  res.HourlyOccupancy,
		})
	})
}

// handleGenerate starts an async calibrated-workload generation job.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, badReq("decoding request: %v", err))
		return
	}
	if req.Workload == "" {
		writeErr(w, badReq("missing workload"))
		return
	}
	st, err := s.jobs.start(s.store, req)
	if err != nil {
		writeErr(w, badReq("%v", err))
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]JobStatus{"jobs": s.jobs.list()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, fmt.Errorf("%w: job %q", ErrNotFound, r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}
