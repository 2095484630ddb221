package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Client is the transport to one remote peer: a dedicated http.Client
// with a per-attempt timeout, a bounded retry loop with exponential
// backoff, and liveness/latency accounting. Request bodies are byte
// slices (cluster messages are small — shard batches, binary partial
// snapshots) so retries can resend without caller cooperation.
type Client struct {
	id      string
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration

	alive    atomic.Bool
	requests atomic.Uint64
	retried  atomic.Uint64
	failures atomic.Uint64
	// latEWMA holds math.Float64bits of the smoothed success latency in
	// milliseconds (0 = no sample yet).
	latEWMA atomic.Uint64
}

// Response is one peer call's outcome. Body is fully read and the
// connection returned to the pool before Do returns.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
}

func newClient(id, base string, timeout time.Duration, retries int, backoff time.Duration) *Client {
	c := &Client{
		id:   id,
		base: base,
		hc: &http.Client{
			Timeout: timeout,
			// Each peer gets its own transport so one slow peer cannot
			// exhaust a shared connection pool.
			Transport: &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: 30 * time.Second},
		},
		retries: retries,
		backoff: backoff,
	}
	c.alive.Store(true)
	return c
}

// Alive returns the last-known reachability.
func (c *Client) Alive() bool { return c.alive.Load() }

// MarkDown clears liveness out of band (the prober uses it; Do
// maintains liveness passively).
func (c *Client) MarkDown() { c.alive.Store(false) }

// retryStatus reports whether a status code is worth another attempt:
// upstream transient failures, not deterministic 4xx/5xx outcomes.
func retryStatus(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Do sends one request to the peer, retrying transport errors and
// transient statuses up to the attempt budget with doubling backoff.
// Any response with a non-transient status counts as transport success
// (the peer is up; the answer is the answer). A nil error always
// carries a complete Response.
func (c *Client) Do(ctx context.Context, method, path string, query url.Values, contentType string, body []byte) (*Response, error) {
	var hdr http.Header
	if contentType != "" {
		hdr = http.Header{"Content-Type": []string{contentType}}
	}
	return c.DoHeaders(ctx, method, path, query, hdr, body)
}

// DoHeaders is Do with arbitrary extra request headers (nil for none),
// for protocol markers like forwarding-loop guards.
func (c *Client) DoHeaders(ctx context.Context, method, path string, query url.Values, hdr http.Header, body []byte) (*Response, error) {
	c.requests.Add(1)
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var lastErr error
	delay := c.backoff
	for attempt := 0; attempt < c.retries; attempt++ {
		if attempt > 0 {
			c.retried.Add(1)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				c.failures.Add(1)
				c.alive.Store(false)
				return nil, ctx.Err()
			}
			delay *= 2
		}
		req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("fleet: building %s %s: %w", method, u, err)
		}
		for k, vs := range hdr {
			req.Header[k] = vs
		}
		// Propagate the originating request's trace ID so one report's
		// scatter/gather and append relays share an X-Request-Id across
		// the cluster.
		if id := obs.RequestIDFromContext(ctx); id != "" && req.Header.Get("X-Request-Id") == "" {
			req.Header.Set("X-Request-Id", id)
		}
		start := time.Now()
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		payload, err := readBody(resp)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("reading response: %w", err)
			continue
		}
		if retryStatus(resp.StatusCode) && attempt < c.retries-1 {
			lastErr = fmt.Errorf("peer %s: transient status %d", c.id, resp.StatusCode)
			continue
		}
		c.alive.Store(true)
		c.observeLatency(time.Since(start))
		return &Response{Status: resp.StatusCode, Header: resp.Header, Body: payload}, nil
	}
	c.failures.Add(1)
	c.alive.Store(false)
	return nil, fmt.Errorf("fleet: peer %s unreachable after %d attempt(s): %w", c.id, c.retries, lastErr)
}

// readBody reads a response body whole: into one buffer of the
// announced size when the peer sent a Content-Length (binary partial
// snapshots run to megabytes), growing one otherwise.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength <= 0 {
		return io.ReadAll(resp.Body)
	}
	b := make([]byte, resp.ContentLength)
	if _, err := io.ReadFull(resp.Body, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Get is Do(GET) without a body.
func (c *Client) Get(ctx context.Context, path string, query url.Values) (*Response, error) {
	return c.Do(ctx, http.MethodGet, path, query, "", nil)
}

// observeLatency folds one success into the EWMA (alpha 0.2).
func (c *Client) observeLatency(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	for {
		old := c.latEWMA.Load()
		cur := math.Float64frombits(old)
		next := ms
		if old != 0 {
			next = 0.8*cur + 0.2*ms
		}
		if c.latEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// latencyMS returns the smoothed success latency (0 = no sample yet),
// rounded to two decimals for stable stats payloads.
func (c *Client) latencyMS() float64 {
	v := math.Float64frombits(c.latEWMA.Load())
	return math.Round(v*100) / 100
}

// counts snapshots the request/retry/failure counters.
func (c *Client) counts() (requests, retries, failures uint64) {
	return c.requests.Load(), c.retried.Load(), c.failures.Load()
}
