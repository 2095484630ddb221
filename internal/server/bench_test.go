package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchServer returns a server preloaded with a two-week CC-b trace —
// thousands of jobs, a realistic interactive-analytics target.
func benchServer(tb testing.TB, cfg Config) (*Server, *httptest.Server) {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	tr := genTrace(tb, "CC-b", 1, 14*24*time.Hour)
	if _, err := s.store.Put("bench", tr); err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts
}

func get(tb testing.TB, url string) {
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET %s -> %d", url, resp.StatusCode)
	}
}

// BenchmarkServeReport measures the serving layer's headline numbers:
// a cold report request in the two cold regimes — "cold" finalizes the
// trace's frozen ingest-time partial aggregate (no per-job work),
// "cold-scan" re-reads every stored job for a window spanning the whole
// trace (which the frozen partial cannot answer) — versus "warm", a
// result-cache hit. cold-scan/cold is the value of ingest-time
// aggregation; cold/warm is the value of the ReStore-style result cache
// (acceptance bar >= 10x).
func BenchmarkServeReport(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		s, ts := benchServer(b, Config{})
		url := ts.URL + "/v1/traces/bench/report"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(b, url)
			b.StopTimer()
			s.cache.InvalidatePrefix("") // evict between iterations
			b.StartTimer()
		}
	})
	b.Run("cold-scan", func(b *testing.B) {
		s, ts := benchServer(b, Config{})
		url := ts.URL + "/v1/traces/bench/report?from=0&to=9999999999"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(b, url)
			b.StopTimer()
			s.cache.InvalidatePrefix("") // drops the aggregate tier too
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		_, ts := benchServer(b, Config{})
		url := ts.URL + "/v1/traces/bench/report"
		get(b, url) // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(b, url)
		}
	})
}

// BenchmarkStoreColdReport is the durability trend datapoint: a cold
// report request served from the in-memory ingest-time partial
// ("memory") versus one served by a freshly restarted server from the
// persisted partial snapshot ("disk") versus a restarted server with no
// snapshot that must scan the segments out-of-core ("disk-scan"). The
// first two should be near-identical — that gap is the cost of a
// restart under the durable store — and the third bounds the worst
// case. benchtrend -suite serve appends the numbers to BENCH_SERVE.json.
func BenchmarkStoreColdReport(b *testing.B) {
	b.Run("memory", func(b *testing.B) {
		s, ts := benchServer(b, Config{})
		url := ts.URL + "/v1/traces/bench/report"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(b, url)
			b.StopTimer()
			s.cache.InvalidatePrefix("")
			b.StartTimer()
		}
	})
	restarted := func(b *testing.B, dropSnapshot bool) (*Server, *httptest.Server) {
		b.Helper()
		dir := b.TempDir()
		cfg := Config{DataDir: dir}
		s1, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tr := genTrace(b, "CC-b", 1, 14*24*time.Hour)
		if _, err := s1.store.Put("bench", tr); err != nil {
			b.Fatal(err)
		}
		if err := s1.Close(); err != nil {
			b.Fatal(err)
		}
		if dropSnapshot {
			snaps, err := filepath.Glob(filepath.Join(dir, "traces", "*", "g*.partial"))
			if err != nil || len(snaps) == 0 {
				b.Fatalf("no snapshot to drop (%v)", err)
			}
			for _, snap := range snaps {
				os.Remove(snap)
			}
		}
		s2, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s2.Close() })
		ts := httptest.NewServer(s2.Handler())
		b.Cleanup(ts.Close)
		return s2, ts
	}
	b.Run("disk", func(b *testing.B) {
		s, ts := restarted(b, false)
		url := ts.URL + "/v1/traces/bench/report"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(b, url)
			b.StopTimer()
			s.cache.InvalidatePrefix("")
			b.StartTimer()
		}
	})
	b.Run("disk-scan", func(b *testing.B) {
		s, ts := restarted(b, true)
		url := ts.URL + "/v1/traces/bench/report"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(b, url)
			b.StopTimer()
			s.cache.InvalidatePrefix("") // drops the parked aggregate too
			b.StartTimer()
		}
	})
}

// TestServeReportCacheSpeedup enforces the acceptance criterion in the
// regular test suite: a cached report request must be at least 10x
// faster than the cold request that computed it. The cold request
// finalizes the frozen ingest partial without sorting, so the margin in
// practice is about 20-90x (16-40x under -race) on a 2-vCPU host: the
// 10x bar still clears scheduler noise, and the warm side takes the
// best of several probes to shield against GC pauses.
func TestServeReportCacheSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test is not -short")
	}
	s, ts := benchServer(t, Config{})
	url := ts.URL + "/v1/traces/bench/report"

	start := time.Now()
	get(t, url)
	cold := time.Since(start)

	warm := time.Duration(1<<63 - 1)
	for i := 0; i < 10; i++ {
		start = time.Now()
		get(t, url)
		if d := time.Since(start); d < warm {
			warm = d
		}
	}
	if cs := s.Cache().Stats(); cs.Misses != 1 {
		t.Fatalf("expected exactly one analysis, cache ran %d", cs.Misses)
	}
	if cold < 10*warm {
		t.Errorf("cached report not >=10x faster: cold=%v warm(best)=%v (%.1fx)",
			cold, warm, float64(cold)/float64(warm))
	}
	t.Logf("cold=%v warm=%v speedup=%.0fx", cold, warm, float64(cold)/float64(warm))
}
