package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Ops.")
	r.RegisterFunc("test_depth", "Depth.", KindGauge, func() []Sample {
		return []Sample{{Value: 2.5}}
	})
	c.Add(41)
	c.Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParsePrometheus(b.String())
	if err != nil {
		t.Fatalf("rendered output does not parse: %v\n%s", err, b.String())
	}
	if v, ok := exp.Value("test_ops_total"); !ok || v != 42 {
		t.Errorf("test_ops_total = %v, %v; want 42", v, ok)
	}
	if v, ok := exp.Value("test_depth"); !ok || v != 2.5 {
		t.Errorf("test_depth = %v, %v; want 2.5", v, ok)
	}
	if exp.Types["test_ops_total"] != "counter" || exp.Types["test_depth"] != "gauge" {
		t.Errorf("TYPE lines wrong: %v", exp.Types)
	}
}

func TestCounterVecLabelsAndEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_req_total", "Requests.", "endpoint", "code")
	v.With(`GET /v1/traces/{name}`, "200").Add(3)
	v.With("weird \"quoted\"\nname\\x", "500").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParsePrometheus(b.String())
	if err != nil {
		t.Fatalf("escaped labels do not parse back: %v\n%s", err, b.String())
	}
	if v, ok := exp.Value("test_req_total", "endpoint", "GET /v1/traces/{name}", "code", "200"); !ok || v != 3 {
		t.Errorf("labeled lookup = %v, %v; want 3", v, ok)
	}
	// The escaping must round-trip: the parsed label equals the original.
	if v, ok := exp.Value("test_req_total", "endpoint", "weird \"quoted\"\nname\\x", "code", "500"); !ok || v != 1 {
		t.Errorf("escaped label did not round-trip (%v, %v)", v, ok)
	}
}

func TestHistogramBucketsMatchLogBinning(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_latency_seconds", "Latency.", 5, -5, 2, "layer").With("core.finalize")
	obs := []float64{0, 0.00001, 0.001, 0.5, 1, 50, 1e9}
	for _, v := range obs {
		h.Observe(v)
	}
	if h.Count() != uint64(len(obs)) {
		t.Fatalf("count %d, want %d", h.Count(), len(obs))
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParsePrometheus(b.String())
	if err != nil {
		t.Fatalf("histogram does not parse: %v\n%s", err, b.String())
	}
	buckets := exp.Find("test_latency_seconds_bucket")
	if len(buckets) != 36 { // 7 decades x 5 bins + +Inf
		t.Fatalf("bucket count %d, want 36", len(buckets))
	}
	last := buckets[len(buckets)-1]
	if last.Label("le") != "+Inf" || last.Label("layer") != "core.finalize" || last.Value != float64(len(obs)) {
		t.Errorf("+Inf bucket %v = %g, want %d", last.Labels, last.Value, len(obs))
	}
	if v, ok := exp.Value("test_latency_seconds_count", "layer", "core.finalize"); !ok || v != float64(len(obs)) {
		t.Errorf("count sample %v, %v", v, ok)
	}
	wantSum := 0.0
	for _, v := range obs {
		wantSum += v
	}
	if v, ok := exp.Value("test_latency_seconds_sum", "layer", "core.finalize"); !ok || math.Abs(v-wantSum) > 1e-9*wantSum {
		t.Errorf("sum sample %v, want %v", v, wantSum)
	}
}

// TestRegistryHammer is the concurrency gate: N goroutines observe
// histograms and bump counters while scrapers render the registry.
// Every render must parse, cumulative buckets must be monotone, and
// once the writers finish the totals must be exact.
func TestRegistryHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_ops_total", "Ops.")
	h := r.HistogramVec("hammer_latency_seconds", "Latency.", 5, -5, 2, "layer").With("server.http")
	vec := r.HistogramVec("hammer_path_seconds", "Per-path latency.", 5, -5, 2, "path")

	const (
		writers = 8
		perG    = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Scrapers render concurrently with the writers; each render must
	// parse cleanly mid-flight.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Errorf("render: %v", err)
					return
				}
				if _, err := ParsePrometheus(b.String()); err != nil {
					t.Errorf("mid-flight render does not parse: %v", err)
					return
				}
			}
		}()
	}
	var writerWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			paths := []string{"scan", "merge", "ingest"}
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(float64(i%1000) / 1000)
				vec.With(paths[i%len(paths)]).Observe(0.001 * float64(i%17))
			}
		}(g)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParsePrometheus(b.String())
	if err != nil {
		t.Fatalf("final render does not parse: %v", err)
	}
	const total = writers * perG
	if v, ok := exp.Value("hammer_ops_total"); !ok || v != total {
		t.Errorf("counter %v, want %d", v, total)
	}
	if v, ok := exp.Value("hammer_latency_seconds_count", "layer", "server.http"); !ok || v != total {
		t.Errorf("histogram count %v, want %d", v, total)
	}
	if v, ok := exp.Value("hammer_latency_seconds_bucket", "layer", "server.http", "le", "+Inf"); !ok || v != total {
		t.Errorf("+Inf bucket %v, want %d", v, total)
	}
	var vecTotal float64
	for _, s := range exp.Find("hammer_path_seconds_count") {
		vecTotal += s.Value
	}
	if vecTotal != total {
		t.Errorf("vec counts sum to %v, want %d", vecTotal, total)
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	bad := []string{
		"no_type_line 1\n",
		"# TYPE x counter\nx{unclosed=\"v 1\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x counter\n9leading 1\n",
		"# TYPE x histogram\nx_bucket{le=\"1\"} 5\nx_bucket{le=\"2\"} 3\n",
	}
	for _, text := range bad {
		if _, err := ParsePrometheus(text); err == nil {
			t.Errorf("parser accepted %q", text)
		}
	}
}

func TestRequestTraceSpansAndContext(t *testing.T) {
	rt := NewRequest("abc-123")
	ctx := WithRequest(context.Background(), rt)
	if got := RequestIDFromContext(ctx); got != "abc-123" {
		t.Fatalf("id from ctx %q", got)
	}
	end := FromContext(ctx).StartSpan("storage.scan", "segments=3")
	time.Sleep(time.Millisecond)
	end()
	spans := rt.Spans()
	if len(spans) != 1 || spans[0].Name != "storage.scan" || spans[0].MS <= 0 {
		t.Fatalf("spans %+v", spans)
	}
	// Nil-safety: untraced contexts are no-ops, not panics.
	var nilRT *Request
	nilRT.StartSpan("x", "")()
	nilRT.SetEndpoint("y")
	if nilRT.ID() != "" || nilRT.Endpoint() != "" || nilRT.Spans() != nil {
		t.Error("nil request trace leaked state")
	}
	if got := RequestIDFromContext(context.Background()); got != "" {
		t.Errorf("empty ctx id %q", got)
	}
}

func TestSanitizeRequestID(t *testing.T) {
	ok := []string{"a", "req-1", "A.b_c-9", strings.Repeat("x", 64)}
	for _, s := range ok {
		if SanitizeRequestID(s) != s {
			t.Errorf("rejected valid id %q", s)
		}
	}
	bad := []string{"", strings.Repeat("x", 65), "sp ace", "new\nline", "quo\"te", "semi;colon", "non-ascii-é"}
	for _, s := range bad {
		if SanitizeRequestID(s) != "" {
			t.Errorf("accepted invalid id %q", s)
		}
	}
}

func TestRequestLogRing(t *testing.T) {
	l := NewRequestLog(4)
	for i := 0; i < 6; i++ {
		l.Add(RequestRecord{ID: string(rune('a' + i)), MS: float64(i)})
	}
	if l.Len() != 4 {
		t.Fatalf("len %d, want 4", l.Len())
	}
	recs := l.Snapshot(0, 0)
	if len(recs) != 4 || recs[0].ID != "f" || recs[3].ID != "c" {
		t.Fatalf("snapshot order wrong: %+v", recs)
	}
	slow := l.Snapshot(4, 0)
	if len(slow) != 2 || slow[0].ID != "f" || slow[1].ID != "e" {
		t.Fatalf("min_ms filter wrong: %+v", slow)
	}
	limited := l.Snapshot(0, 1)
	if len(limited) != 1 || limited[0].ID != "f" {
		t.Fatalf("limit wrong: %+v", limited)
	}
}

func TestRuntimeRegistration(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r, time.Now().Add(-2*time.Second))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParsePrometheus(b.String())
	if err != nil {
		t.Fatalf("runtime metrics do not parse: %v\n%s", err, b.String())
	}
	if v, ok := exp.Value("go_goroutines"); !ok || v < 1 {
		t.Errorf("go_goroutines %v, %v", v, ok)
	}
	if v, ok := exp.Value("swim_uptime_seconds"); !ok || v < 1 {
		t.Errorf("swim_uptime_seconds %v, %v", v, ok)
	}
	if len(exp.Find("swim_build_info")) != 1 {
		t.Error("swim_build_info missing")
	}
}
