package obs

import (
	"sync"
	"time"
)

// ScanNumbers are the scan-evidence counters a disk-backed analysis
// reports (the X-Scan-* response headers), attached to ring entries so
// the slow-query log explains *why* a request was slow.
type ScanNumbers struct {
	Segments       int   `json:"segments"`
	SegmentsPruned int   `json:"segments_pruned"`
	Blocks         int64 `json:"blocks"`
	BlocksPruned   int64 `json:"blocks_pruned"`
}

// RequestRecord is one finished request in the debug ring.
type RequestRecord struct {
	ID       string    `json:"id"`
	Time     time.Time `json:"time"`
	Method   string    `json:"method"`
	Path     string    `json:"path"`
	Endpoint string    `json:"endpoint,omitempty"`
	Status   int       `json:"status"`
	MS       float64   `json:"ms"`
	BytesIn  int64     `json:"bytes_in,omitempty"`
	BytesOut int64     `json:"bytes_out,omitempty"`
	// Analysis is the X-Analysis path the request took (reports only).
	Analysis string `json:"analysis,omitempty"`
	// Cache is the X-Cache outcome (HIT/MISS/BYPASS) when one applies.
	Cache string       `json:"cache,omitempty"`
	Scan  *ScanNumbers `json:"scan,omitempty"`
	Spans []Span       `json:"spans,omitempty"`
}

// RequestLog is a bounded ring of recent requests: every request is
// recorded (not just slow ones), so a cluster coordinator's trace is
// inspectable right after the fact, and the HTTP surface filters by
// duration for the slow-query view.
type RequestLog struct {
	mu   sync.Mutex
	buf  []RequestRecord
	next int
	full bool
}

// DefaultRequestLogSize bounds the ring when the configuration leaves
// it zero.
const DefaultRequestLogSize = 256

// NewRequestLog returns a ring holding the last n requests (n <= 0:
// DefaultRequestLogSize).
func NewRequestLog(n int) *RequestLog {
	if n <= 0 {
		n = DefaultRequestLogSize
	}
	return &RequestLog{buf: make([]RequestRecord, n)}
}

// Add records one finished request, evicting the oldest when full.
func (l *RequestLog) Add(rec RequestRecord) {
	l.mu.Lock()
	l.buf[l.next] = rec
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
}

// Snapshot returns the recorded requests newest-first, keeping only
// those at least minMS milliseconds long, up to limit entries
// (limit <= 0: all).
func (l *RequestLog) Snapshot(minMS float64, limit int) []RequestRecord {
	l.mu.Lock()
	n := l.next
	if l.full {
		n = len(l.buf)
	}
	recs := make([]RequestRecord, 0, n)
	// Walk backwards from the most recent slot.
	for i := 0; i < n; i++ {
		idx := l.next - 1 - i
		if idx < 0 {
			idx += len(l.buf)
		}
		r := l.buf[idx]
		if r.MS < minMS {
			continue
		}
		recs = append(recs, r)
		if limit > 0 && len(recs) == limit {
			break
		}
	}
	l.mu.Unlock()
	return recs
}

// Len returns how many requests the ring currently holds.
func (l *RequestLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.full {
		return len(l.buf)
	}
	return l.next
}
