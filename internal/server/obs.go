package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// serverMetrics is the server's observability bundle: the metric
// registry every layer records into, the bounded ring of recent
// requests, and the instruments the middleware and cluster coordinator
// touch on hot paths. Each fact has one instrument: the store and cache
// series are scrape-time collectors over the Stats snapshots /v1/stats
// reads, and /v1/stats's request counts are summed from the HTTP
// counters, so the request path pays only for its own instruments.
type serverMetrics struct {
	reg     *obs.Registry
	ring    *obs.RequestLog
	started time.Time
	build   obs.BuildInfo

	// Per-endpoint HTTP series, labeled by route pattern + status code.
	httpRequests  *obs.CounterVec   // swim_http_requests_total{endpoint,code}
	httpLatency   *obs.HistogramVec // swim_http_request_duration_seconds{endpoint}
	httpReqBytes  *obs.CounterVec   // swim_http_request_bytes_total{endpoint}
	httpRespBytes *obs.CounterVec   // swim_http_response_bytes_total{endpoint}
	panics        *obs.Counter
	slowRequests  *obs.Counter

	// Per-analysis-path latency: which X-Analysis route a report took
	// (ingest-partial, disk-scan, scatter, degraded, ...).
	analysisLatency *obs.HistogramVec // swim_analysis_duration_seconds{path}

	// Per-layer time, folded from each finished request's spans, which
	// carry the benchmark's layer names (core.finalize, storage.scan, ...).
	layers *obs.HistogramVec // swim_layer_seconds{layer}

	shardFetchErrors *obs.CounterVec // swim_cluster_shard_fetch_failures_total{peer}
}

// latency histograms cover 10µs..100s at 5 bins/decade — the
// stats.LogHistogram discipline over the spans swimd requests occupy.
const (
	latBins   = 5
	latMinExp = -5
	latMaxExp = 2
)

// newServerMetrics builds the registry and registers the scrape-time
// collectors over the server's stats sources.
func newServerMetrics(s *Server, ringSize int) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg:     r,
		ring:    obs.NewRequestLog(ringSize),
		started: time.Now(),
		build:   obs.ReadBuildInfo(),

		httpRequests:  r.CounterVec("swim_http_requests_total", "HTTP requests served, by route pattern and status code.", "endpoint", "code"),
		httpLatency:   r.HistogramVec("swim_http_request_duration_seconds", "HTTP request latency by route pattern.", latBins, latMinExp, latMaxExp, "endpoint"),
		httpReqBytes:  r.CounterVec("swim_http_request_bytes_total", "Request body bytes read, by route pattern.", "endpoint"),
		httpRespBytes: r.CounterVec("swim_http_response_bytes_total", "Response body bytes written, by route pattern.", "endpoint"),
		panics:        r.Counter("swim_http_panics_total", "Handler panics recovered into 500s."),
		slowRequests:  r.Counter("swim_http_slow_requests_total", "Requests slower than the configured slow-request threshold."),

		analysisLatency: r.HistogramVec("swim_analysis_duration_seconds", "Report latency by X-Analysis path.", latBins, latMinExp, latMaxExp, "path"),
		layers:          r.HistogramVec("swim_layer_seconds", "Time in each layer of a request, from its spans.", latBins, latMinExp, latMaxExp, "layer"),

		shardFetchErrors: r.CounterVec("swim_cluster_shard_fetch_failures_total", "Failed shard-partial fetch attempts by peer.", "peer"),
	}

	obs.RegisterRuntime(r, m.started)

	r.RegisterFunc("swim_store_traces", "Stored traces.", obs.KindGauge, func() []obs.Sample {
		st := s.store.Stats()
		return []obs.Sample{{Value: float64(st.Traces)}}
	})
	r.RegisterFunc("swim_store_jobs", "Total and hot-tier job counts.", obs.KindGauge, func() []obs.Sample {
		st := s.store.Stats()
		return []obs.Sample{
			{Labels: obs.L("tier", "total"), Value: float64(st.TotalJobs)},
			{Labels: obs.L("tier", "resident"), Value: float64(st.ResidentJobs)},
		}
	})
	// Cardinality is bounded by the store's max-traces knob.
	r.RegisterFunc("swim_storage_trace_segments", "Segment files per stored trace.", obs.KindGauge, func() []obs.Sample {
		gauges := s.store.StorageGauges()
		out := make([]obs.Sample, 0, len(gauges))
		for _, ts := range gauges {
			out = append(out, obs.Sample{Labels: obs.L("trace", ts.Name), Value: float64(ts.Segments)})
		}
		return out
	})
	r.RegisterFunc("swim_cache_events_total", "Result-cache lifetime counters by event.", obs.KindCounter, func() []obs.Sample {
		st := s.cache.Stats()
		return []obs.Sample{
			{Labels: obs.L("event", "hits"), Value: float64(st.Hits)},
			{Labels: obs.L("event", "misses"), Value: float64(st.Misses)},
			{Labels: obs.L("event", "coalesced"), Value: float64(st.Coalesced)},
			{Labels: obs.L("event", "evictions"), Value: float64(st.Evictions)},
		}
	})
	r.RegisterFunc("swim_cache_hit_ratio", "Result-cache hit ratio per tier (hits+coalesced over lookups).", obs.KindGauge, func() []obs.Sample {
		st := s.cache.Stats()
		return []obs.Sample{
			{Labels: obs.L("tier", "results"), Value: ratio(st.Hits+st.Coalesced, st.Hits+st.Coalesced+st.Misses)},
		}
	})
	return m
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// handleMetrics serves GET /metrics in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}

// handleDebugRequests serves GET /v1/debug/requests: the recent-request
// ring newest-first. min_ms=D keeps only requests at least that slow
// (the slow-query view); limit=N caps the count.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	minMS, err := queryFloat(params, "min_ms", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	limit, err := queryInt(params, "limit", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	recs := s.metrics.ring.Snapshot(minMS, limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"count":    len(recs),
		"requests": recs,
	})
}

// ServerInfo is the /v1/stats server section: when the process came
// up, how long it has been serving, and what build it runs.
type ServerInfo struct {
	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	obs.BuildInfo
}

// EndpointStats is one route pattern's aggregate request series in
// /v1/stats, derived from the same instruments /metrics renders.
type EndpointStats struct {
	Requests      uint64  `json:"requests"`
	Errors        uint64  `json:"errors,omitempty"`
	AvgMS         float64 `json:"avg_ms"`
	RequestBytes  uint64  `json:"request_bytes,omitempty"`
	ResponseBytes uint64  `json:"response_bytes,omitempty"`
}

// serverInfo assembles the stats server section.
func (m *serverMetrics) serverInfo() ServerInfo {
	return ServerInfo{
		StartedAt:     m.started.UTC().Truncate(time.Second),
		UptimeSeconds: float64(int64(time.Since(m.started).Seconds()*1000)) / 1000,
		BuildInfo:     m.build,
	}
}

// endpointStats folds the per-(endpoint, code) counters into a
// per-endpoint summary for the JSON stats payload: a code of 400 or
// more counts as an error.
func (m *serverMetrics) endpointStats() map[string]EndpointStats {
	out := make(map[string]EndpointStats)
	for key, n := range m.httpRequests.Snapshot() {
		endpoint, code, ok := cutLast(key, "|")
		if !ok {
			continue
		}
		st := out[endpoint]
		st.Requests += n
		if status, _ := strconv.Atoi(code); status >= 400 {
			st.Errors += n
		}
		out[endpoint] = st
	}
	for endpoint, h := range m.httpLatency.Snapshot() {
		st := out[endpoint]
		if h.Count > 0 {
			st.AvgMS = float64(int64(h.Sum/float64(h.Count)*1e6)) / 1000
		}
		out[endpoint] = st
	}
	for endpoint, n := range m.httpReqBytes.Snapshot() {
		st := out[endpoint]
		st.RequestBytes = n
		out[endpoint] = st
	}
	for endpoint, n := range m.httpRespBytes.Snapshot() {
		st := out[endpoint]
		st.ResponseBytes = n
		out[endpoint] = st
	}
	return out
}

// cutLast splits s at the final occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	for i := len(s) - len(sep); i >= 0; i-- {
		if s[i:i+len(sep)] == sep {
			return s[:i], s[i+len(sep):], true
		}
	}
	return s, "", false
}

// scanNumbers converts response-header scan evidence into the ring's
// record form (nil when the request scanned nothing).
func scanNumbers(h http.Header) *obs.ScanNumbers {
	ev := parseScanEvidence(h)
	if ev == nil {
		return nil
	}
	return &obs.ScanNumbers{
		Segments:       ev.segments,
		SegmentsPruned: ev.segmentsPruned,
		Blocks:         ev.blocks,
		BlocksPruned:   ev.blocksPruned,
	}
}

// spanDetail formats a span's key=value detail tail.
func spanDetail(pairs ...any) string {
	out := ""
	for i := 0; i+1 < len(pairs); i += 2 {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%v=%v", pairs[i], pairs[i+1])
	}
	return out
}

// statusLabel renders a status code as a metrics label.
func statusLabel(code int) string { return strconv.Itoa(code) }
