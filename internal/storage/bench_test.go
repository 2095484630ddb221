package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// BenchmarkSegmentScan is the disk-scan trend datapoint: the cost of
// streaming every stored job back out of committed colseg segments,
// against decoding the same jobs from JSONL, the interchange format
// uploads arrive in. The paper's 14-day FB-2009 trace is committed once
// as colseg (what the store writes), drained each iteration through
// Each, the volatile read compaction and append replay share, and
// written once as a JSONL file (trace.WriteJSONL), drained each
// iteration through trace.NewJSONLReader, the upload decoder.
// BENCH_SCAN.json's scan_speedup gate bars the jsonl/colseg time ratio;
// its compression_ratio gate records the segbytes ratio.
func BenchmarkSegmentScan(b *testing.B) {
	tr := genTrace(b, "FB-2009", 1, 14*24*time.Hour)
	drain := func(b *testing.B, size int64, each func(func(*trace.Job) error) error) {
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			jobs := 0
			if err := each(func(*trace.Job) error { jobs++; return nil }); err != nil {
				b.Fatal(err)
			}
			if jobs != tr.Len() {
				b.Fatalf("scanned %d jobs, want %d", jobs, tr.Len())
			}
		}
		// After ResetTimer: it clears custom metrics.
		b.ReportMetric(float64(size), "segbytes")
		b.ReportMetric(float64(tr.Len()), "jobs/scan")
	}
	b.Run("jsonl", func(b *testing.B) {
		var file bytes.Buffer
		if err := trace.WriteJSONL(&file, tr); err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "bench.jsonl")
		if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		drain(b, int64(file.Len()), func(fn func(*trace.Job) error) error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			r, err := trace.NewJSONLReader(f)
			if err != nil {
				return err
			}
			_, err = trace.Copy(sinkFunc(fn), r)
			return err
		})
	})
	b.Run(CodecColumnar, func(b *testing.B) {
		s, _ := openStore(b, b.TempDir(), 0)
		st := commitTrace(b, s, "bench", tr, nil)
		drain(b, st.SizeBytes(), st.Each)
	})
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

// BenchmarkParallelScan times a sequential and a block-parallel partial
// build of a packed single-segment trace — the shape compaction
// produces. The segment arm decodes jobs through Each and observes them
// one by one on one goroutine; the block arm is ParallelScanPartial,
// which spreads blocks over the cores and decodes and observes each as
// columns. BENCH_SCAN.json's block_parallel_speedup gate bars
// segment/block on multi-core runners (the -N benchmark suffix carries
// GOMAXPROCS; single-core machines pass — no parallelism exists to
// measure). The ratio holds the column path's saving as well as the
// parallel speedup (ROADMAP.md, "Measurement hygiene"). The window arm
// is the block-parallel scan of 6-hour windows stepping through the
// trace, the paper's small ad-hoc query over recent hours: zone maps
// prune all but a window's blocks, so its cost tracks the window rather
// than the trace. BENCH_SCAN.json's window_scan_share records
// window/block.
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
