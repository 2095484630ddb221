package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Span is one timed step inside a request, named by its layer: a disk
// scan (storage.scan), a finalize (core.finalize), a per-peer shard
// fetch. StartMS is the offset from the request's start, so a ring
// entry reads as a waterfall.
type Span struct {
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"`
	StartMS float64 `json:"start_ms"`
	MS      float64 `json:"ms"`
}

// Request is the per-request trace: the ID echoed as X-Request-Id and
// propagated to peers, the matched route, and the spans the handler
// recorded. It is carried through context.Context; every method is
// nil-safe so uninstrumented call paths (tests driving handlers
// directly, background jobs) cost nothing.
type Request struct {
	id    string
	start time.Time

	mu       sync.Mutex
	endpoint string
	spans    []Span
}

// NewRequest starts a trace with the given ID (minting one when empty).
func NewRequest(id string) *Request {
	if id == "" {
		id = NewRequestID()
	}
	return &Request{id: id, start: time.Now()}
}

// NewRequestID mints a 16-hex-character random request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the process is in deep trouble; a
		// constant ID keeps requests serviceable rather than panicking
		// the middleware.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ID returns the request's trace ID ("" on a nil request).
func (rt *Request) ID() string {
	if rt == nil {
		return ""
	}
	return rt.id
}

// SetEndpoint records the matched route pattern (the metrics label).
func (rt *Request) SetEndpoint(p string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.endpoint = p
	rt.mu.Unlock()
}

// Endpoint returns the matched route pattern ("" when no route
// matched or the request is untraced).
func (rt *Request) Endpoint() string {
	if rt == nil {
		return ""
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.endpoint
}

// StartSpan opens a span and returns its closer; call the closer when
// the step finishes. Nil-safe: on an untraced path the closer is a
// no-op.
func (rt *Request) StartSpan(name, detail string) func() {
	if rt == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		end := time.Now()
		rt.mu.Lock()
		rt.spans = append(rt.spans, Span{
			Name:    name,
			Detail:  detail,
			StartMS: roundMS(begin.Sub(rt.start)),
			MS:      roundMS(end.Sub(begin)),
		})
		rt.mu.Unlock()
	}
}

// Spans snapshots the recorded spans.
func (rt *Request) Spans() []Span {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]Span(nil), rt.spans...)
}

func roundMS(d time.Duration) float64 {
	ms := float64(d) / float64(time.Millisecond)
	return float64(int64(ms*1000+0.5)) / 1000
}

// ctxKey keys the request trace in a context.
type ctxKey struct{}

// WithRequest attaches a request trace to a context.
func WithRequest(ctx context.Context, rt *Request) context.Context {
	return context.WithValue(ctx, ctxKey{}, rt)
}

// FromContext returns the context's request trace, nil when untraced.
func FromContext(ctx context.Context) *Request {
	rt, _ := ctx.Value(ctxKey{}).(*Request)
	return rt
}

// RequestIDFromContext returns the trace ID carried by ctx ("" when
// untraced) — what the fleet client stamps on outbound peer requests.
func RequestIDFromContext(ctx context.Context) string {
	return FromContext(ctx).ID()
}

// SanitizeRequestID validates a client-supplied X-Request-Id: 1-64
// characters of [A-Za-z0-9._-]. Anything else returns "" and the
// middleware mints a fresh ID instead of echoing arbitrary bytes into
// logs and peer requests.
func SanitizeRequestID(s string) string {
	if len(s) == 0 || len(s) > 64 {
		return ""
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return s
}
