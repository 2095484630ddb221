package server

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/obs"
)

// middleware wraps every handler with panic recovery, request tracing,
// and metrics accounting. A panic in a handler must not take down a
// server holding other clients' traces: it becomes a 500 on that
// request and a logged stack.
//
// Every request gets a trace ID — the caller's X-Request-Id when it is
// well-formed, a minted one otherwise — echoed on the response, carried
// through the handler's context (the fleet client forwards it to peers),
// and attached to every log line. Requests are recorded into the
// recent-request ring, and their spans into the per-layer histogram;
// only slow or failing ones are logged, so steady traffic costs no log
// volume.
type middleware struct {
	logger  *slog.Logger
	metrics *serverMetrics
	// slowAfter is the slow-request threshold: requests at least this
	// slow are logged and counted even when they succeed.
	slowAfter time.Duration
}

// statusWriter records the status code and body bytes written by the
// handler. It forwards Flush and Hijack to the underlying writer (via
// ResponseController, which unwraps) so streaming and upgrade handlers
// keep working behind the instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush forwards to the underlying writer when it supports flushing
// (directly or through further wrappers); otherwise it is a no-op.
func (w *statusWriter) Flush() {
	_ = http.NewResponseController(w.ResponseWriter).Flush()
}

// Hijack forwards connection takeover to the underlying writer.
func (w *statusWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	return http.NewResponseController(w.ResponseWriter).Hijack()
}

// countingReader counts the request-body bytes a handler actually read.
type countingReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

func (m *middleware) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := obs.NewRequest(obs.SanitizeRequestID(r.Header.Get("X-Request-Id")))
		w.Header().Set("X-Request-Id", rt.ID())
		r = r.WithContext(obs.WithRequest(r.Context(), rt))
		body := &countingReader{rc: r.Body}
		r.Body = body
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			rec := recover()
			if rec != nil {
				m.metrics.panics.Inc()
				if m.logger != nil {
					m.logger.Error("panic serving request",
						"request_id", rt.ID(),
						"method", r.Method,
						"path", r.URL.Path,
						"panic", fmt.Sprint(rec),
						"stack", string(debug.Stack()))
				}
				if sw.status == 0 {
					writeJSON(sw, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("internal: %v", rec)})
				}
			}
			m.observe(r, rt, sw, body.n, time.Since(start))
		}()
		next.ServeHTTP(sw, r)
	})
}

// observe records one finished request into the metrics registry, its
// spans into the layer histogram, the request into the recent-request
// ring, and — when slow or failing — the log.
func (m *middleware) observe(r *http.Request, rt *obs.Request, sw *statusWriter, bytesIn int64, d time.Duration) {
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	endpoint := rt.Endpoint()
	if endpoint == "" {
		endpoint = "unmatched"
	}
	analysis := sw.Header().Get("X-Analysis")
	cache := sw.Header().Get("X-Cache")
	slow := m.slowAfter > 0 && d >= m.slowAfter

	m.metrics.httpRequests.With(endpoint, statusLabel(status)).Inc()
	m.metrics.httpLatency.With(endpoint).Observe(d.Seconds())
	if bytesIn > 0 {
		m.metrics.httpReqBytes.With(endpoint).Add(uint64(bytesIn))
	}
	if sw.bytes > 0 {
		m.metrics.httpRespBytes.With(endpoint).Add(uint64(sw.bytes))
	}
	if analysis != "" {
		m.metrics.analysisLatency.With(analysis).Observe(d.Seconds())
	}
	if slow {
		m.metrics.slowRequests.Inc()
	}
	spans := rt.Spans()
	for _, sp := range spans {
		m.metrics.layers.With(sp.Name).Observe(sp.MS / 1000)
	}
	m.metrics.ring.Add(obs.RequestRecord{
		ID:       rt.ID(),
		Time:     time.Now().UTC(),
		Method:   r.Method,
		Path:     r.URL.Path,
		Endpoint: endpoint,
		Status:   status,
		MS:       float64(d.Microseconds()) / 1000,
		BytesIn:  bytesIn,
		BytesOut: sw.bytes,
		Analysis: analysis,
		Cache:    cache,
		Scan:     scanNumbers(sw.Header()),
		Spans:    spans,
	})

	if m.logger == nil || (!slow && status < 500) {
		return
	}
	attrs := []any{
		"request_id", rt.ID(),
		"method", r.Method,
		"path", r.URL.Path,
		"endpoint", endpoint,
		"status", status,
		"duration", d.Round(time.Microsecond),
		"bytes_in", bytesIn,
		"bytes_out", sw.bytes,
	}
	if analysis != "" {
		attrs = append(attrs, "analysis", analysis)
	}
	switch {
	case status >= 500:
		m.logger.Error("request failed", attrs...)
	default:
		m.logger.Warn("slow request", attrs...)
	}
}

// RequestStats is the middleware's lifetime request counts by status
// class, summed from swim_http_requests_total: a request counts once
// the middleware has recorded it, after its handler returns.
type RequestStats struct {
	Requests  uint64 `json:"requests"`
	Status2xx uint64 `json:"status_2xx"`
	Status4xx uint64 `json:"status_4xx"`
	Status5xx uint64 `json:"status_5xx"`
}

func (m *middleware) stats() RequestStats {
	var st RequestStats
	for key, n := range m.metrics.httpRequests.Snapshot() {
		_, code, _ := cutLast(key, "|")
		status, _ := strconv.Atoi(code)
		st.Requests += n
		switch {
		case status >= 500:
			st.Status5xx += n
		case status >= 400:
			st.Status4xx += n
		default:
			st.Status2xx += n
		}
	}
	return st
}
