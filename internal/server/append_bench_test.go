package server

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/trace"
)

// BenchmarkAppendIngest prices the live-ingest path: the same two-week
// trace committed through the durable store as one upload ("oneshot")
// versus eight appended batches ("batched" — eight manifest commits,
// aggregate refreezes, and fingerprint extensions on one open
// generation). The batched/oneshot ratio is the overhead of incremental
// durability; benchtrend -suite append records it in BENCH_APPEND.json
// and gates it with -max-append-overhead.
func BenchmarkAppendIngest(b *testing.B) {
	tr := genTrace(b, "CC-b", 1, 14*24*time.Hour)
	tr.Sort()
	newDisk := func(b *testing.B) *Server {
		b.Helper()
		s, err := New(Config{DataDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		return s
	}
	b.Run("oneshot", func(b *testing.B) {
		s := newDisk(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("bench-%d", i)
			if _, err := s.store.Put(name, cloneTrace(tr)); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s.store.Delete(name) // keep the store at one live trace
			b.StartTimer()
		}
	})
	b.Run("batched", func(b *testing.B) {
		s := newDisk(b)
		batches := splitBatches(tr, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("bench-%d", i)
			for _, batch := range batches {
				src := trace.NewSliceSource(trSlice(tr, batch))
				if _, _, _, err := s.store.Append(name, src); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s.store.Delete(name)
			b.StartTimer()
		}
	})
}

// BenchmarkWindowedReport is the rolling-window companion datapoint: a
// cold report over the whole 14-day trace ("full") versus a cold report
// over a narrow 6-hour slice ("window"). The trace is spilled (hot tier
// of one job), but the spill carries its frozen partial, so "full" is
// an ingest-partial finalize that reads no segment; only "window" scans
// the disk, where segment submit spans and colseg zone maps prune most
// of it before a job is decoded. The cache is purged between iterations
// so every request pays its finalize or its pruned scan. Since frozen
// partials finalize without sorting, "full" is the cheaper arm, and the
// recorded window_speedup sits below 1.
func BenchmarkWindowedReport(b *testing.B) {
	cfg := Config{DataDir: b.TempDir(), MaxTotalJobs: 1, SegmentJobs: 2000}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	tr := genTrace(b, "CC-b", 1, 14*24*time.Hour)
	tr.Sort()
	ingestTrace(b, ts, "bench", tr)

	start := tr.Meta.Start.UTC()
	run := func(b *testing.B, url string) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(b, url)
			b.StopTimer()
			s.cache.InvalidatePrefix("") // drops the parked window aggregates too
			b.StartTimer()
		}
	}
	b.Run("full", func(b *testing.B) {
		run(b, ts.URL+"/v1/traces/bench/report")
	})
	b.Run("window", func(b *testing.B) {
		from, to := start.Add(7*24*time.Hour), start.Add(7*24*time.Hour+6*time.Hour)
		run(b, fmt.Sprintf("%s/v1/traces/bench/report?from=%d&to=%d", ts.URL, from.Unix(), to.Unix()))
	})
}
