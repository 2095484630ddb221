package storage

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// BenchmarkSegmentScan is the disk-scan trend datapoint: the cost of
// streaming every stored job back out of committed segments, per
// segment codec. The paper's 14-day FB-2009 trace is stored once as
// colseg (what the store writes) and once as v5-era JSONL segments
// (what Open migrates); each iteration drains every segment through
// the volatile chain compaction and migration read with.
// BENCH_SCAN.json's scan_speedup gate bars the jsonl/colseg time ratio;
// its compression_ratio gate records the segbytes ratio.
func BenchmarkSegmentScan(b *testing.B) {
	tr := genTrace(b, "FB-2009", 1, 14*24*time.Hour)
	for _, codec := range []string{"jsonl", CodecColumnar} {
		b.Run(codec, func(b *testing.B) {
			root := b.TempDir()
			var st *Trace
			if codec == CodecColumnar {
				s, _ := openStore(b, root, 0)
				st = commitTrace(b, s, "bench", tr, nil)
			} else {
				st = writeLegacyGeneration(b, root, "bench", tr, DefaultSegmentJobs, tr.Len(), nil)
			}
			b.SetBytes(st.SizeBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jobs := 0
				if err := st.Each(func(*trace.Job) error { jobs++; return nil }); err != nil {
					b.Fatal(err)
				}
				if jobs != tr.Len() {
					b.Fatalf("scanned %d jobs, want %d", jobs, tr.Len())
				}
			}
			// After ResetTimer: it clears custom metrics.
			b.ReportMetric(float64(st.SizeBytes()), "segbytes")
			b.ReportMetric(float64(tr.Len()), "jobs/scan")
		})
	}
}

// BenchmarkFragmentedScan is the compaction trend datapoint: the cost
// of a full out-of-core aggregate scan over the generation 32 one-batch
// append sessions leave (32 segments, one underfilled block each — the
// shape a long-lived live trace accretes) versus the packed generation
// the compactor rewrites it into. Both arms scan single-worker so the
// ratio isolates layout, not parallelism; BENCH_SCAN.json's
// compaction_speedup gate bars it. The fragmented arm must run first:
// committing the compaction sweeps the fragmented generation's files.
func BenchmarkFragmentedScan(b *testing.B) {
	tr := genTrace(b, "FB-2009", 1, time.Hour)
	s, _ := openStore(b, b.TempDir(), 0)
	defer s.Close()
	frag, _ := fragmentTrace(b, s, "bench", tr, 32, 1)

	scanOnce := func(b *testing.B, tt *Trace) {
		p, _, err := tt.ParallelScanPartial(ParallelScanOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if p.Jobs() != tr.Len() {
			b.Fatalf("scanned %d jobs, want %d", p.Jobs(), tr.Len())
		}
	}
	b.Run("fragmented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scanOnce(b, frag)
		}
		b.ReportMetric(float64(frag.Segments()), "segments")
		b.ReportMetric(float64(frag.Blocks()), "blocks")
	})

	a, sealed, err := s.CompactTrace(frag)
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	ct, err := a.Commit(sealed)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compacted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scanOnce(b, ct)
		}
		b.ReportMetric(float64(ct.Segments()), "segments")
		b.ReportMetric(float64(ct.Blocks()), "blocks")
	})
}

// BenchmarkParallelScan pits the two scan parallelization strategies
// against each other on a packed single-segment trace — the shape
// compaction produces. Segment-parallel degenerates there to one
// sequential partial build over the segment chain; only
// block-parallel can use the other cores. BENCH_SCAN.json's
// block_parallel_speedup gate bars segment/block on multi-core runners
// (the -N benchmark suffix carries GOMAXPROCS; single-core machines
// pass — no parallelism exists to measure). The window arm is the
// block-parallel scan of 6-hour windows stepping through the trace,
// the paper's small ad-hoc query over recent hours: zone maps prune
// all but a window's blocks, so its cost tracks the window rather than
// the trace. BENCH_SCAN.json's window_scan_share records window/block.
func BenchmarkParallelScan(b *testing.B) {
	tr := genTrace(b, "FB-2009", 1, 14*24*time.Hour)
	s, _ := openStore(b, b.TempDir(), 1<<20)
	defer s.Close()
	tt := writeTrace(b, s, "bench", tr)
	meta := tt.Meta()

	b.Run("segment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := core.NewPartial(meta, false)
			if err != nil {
				b.Fatal(err)
			}
			if err := tt.Each(func(j *trace.Job) error { p.Observe(j); return nil }); err != nil {
				b.Fatal(err)
			}
			if p.Jobs() != tr.Len() {
				b.Fatalf("scanned %d jobs, want %d", p.Jobs(), tr.Len())
			}
		}
	})
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, _, err := tt.ParallelScanPartial(ParallelScanOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if p.Jobs() != tr.Len() {
				b.Fatalf("scanned %d jobs, want %d", p.Jobs(), tr.Len())
			}
		}
	})
	b.Run("window", func(b *testing.B) {
		const span = 6 * time.Hour
		windows := int(meta.Length / span)
		jobs := 0
		for i := 0; i < b.N; i++ {
			win := meta
			win.Start = meta.Start.Add(time.Duration(i%windows) * span)
			win.Length = span
			p, _, err := tt.ParallelScanPartial(ParallelScanOptions{
				Window: true, From: win.Start, To: win.Start.Add(span), Meta: win,
			})
			if err != nil {
				b.Fatal(err)
			}
			jobs += p.Jobs()
		}
		b.ReportMetric(float64(jobs)/float64(b.N), "jobs/window")
	})
}
