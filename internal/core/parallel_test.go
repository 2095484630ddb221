package core

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/profile"
	"repro/internal/trace"
)

// reportBytes marshals a report's wire form — the representation the
// byte-identity contract is stated over.
func reportBytes(t testing.TB, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep.JSON())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelAnalyzeByteIdentical is the acceptance gate for the
// shard-parallel path: AnalyzeSource with opts.Shards and
// BuildTracePartial at every shard count must produce Report.JSON()
// bytes identical to the sequential AnalyzeSource on the FB-2009 seed-1
// day-1 golden trace, in both exact and sketch Figure 1 modes. CI also
// runs this test under -race to exercise the worker pool.
func TestParallelAnalyzeByteIdentical(t *testing.T) {
	tr := goldenTrace(t)
	for _, sketch := range []bool{false, true} {
		seq, err := AnalyzeSource(trace.NewSliceSource(tr), AnalyzeOptions{SketchDataSizes: sketch})
		if err != nil {
			t.Fatal(err)
		}
		want := reportBytes(t, seq)
		shardCounts := []int{1, 2, 3, 5, 8, 16, 61, runtime.GOMAXPROCS(0)}
		for _, k := range shardCounts {
			opts := AnalyzeOptions{Shards: k, SketchDataSizes: sketch}
			par, err := AnalyzeSource(trace.NewSliceSource(tr), opts)
			if err != nil {
				t.Fatalf("sketch=%v K=%d: %v", sketch, k, err)
			}
			if got := reportBytes(t, par); !bytes.Equal(got, want) {
				t.Errorf("sketch=%v K=%d: parallel report differs from sequential (first diff at byte %d of %d)",
					sketch, k, firstDiff(got, want), len(want))
			}
			// The in-memory trace's partial must agree too.
			p, err := BuildTracePartial(tr, k, sketch)
			if err != nil {
				t.Fatalf("sketch=%v K=%d (trace): %v", sketch, k, err)
			}
			parT, err := p.Report(0)
			if err != nil {
				t.Fatalf("sketch=%v K=%d (trace): %v", sketch, k, err)
			}
			if got := reportBytes(t, parT); !bytes.Equal(got, want) {
				t.Errorf("sketch=%v K=%d: BuildTracePartial's report differs from sequential", sketch, k)
			}
		}
	}
}

// TestAnalyzeSourceRoutesShards: the plain AnalyzeSource entry point
// honors opts.Shards, so the façade and CLIs need no second code path.
func TestAnalyzeSourceRoutesShards(t *testing.T) {
	tr := goldenTrace(t)
	seq, err := AnalyzeSource(trace.NewSliceSource(tr), AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := AnalyzeSource(trace.NewSliceSource(tr), AnalyzeOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, seq), reportBytes(t, par)) {
		t.Error("AnalyzeSource with Shards=4 differs from sequential")
	}
}

// TestBuildTracePartialMatchesSequential: the ingest-time aggregate the
// serving layer precomputes is the same object the parallel path
// merges, at any build parallelism.
func TestBuildTracePartialMatchesSequential(t *testing.T) {
	tr := goldenTrace(t)
	seqP, err := BuildPartial(trace.NewSliceSource(tr), false)
	if err != nil {
		t.Fatal(err)
	}
	seqRep, err := seqP.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, seqRep)
	for _, k := range []int{1, 3, 8} {
		p, err := BuildTracePartial(tr, k, false)
		if err != nil {
			t.Fatal(err)
		}
		if p.Jobs() != tr.Len() {
			t.Fatalf("k=%d: partial observed %d jobs, want %d", k, p.Jobs(), tr.Len())
		}
		rep, err := p.Report(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reportBytes(t, rep), want) {
			t.Errorf("k=%d: partial-built report differs from sequential", k)
		}
		// Finalization is repeatable on a frozen partial.
		rep2, err := p.Report(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reportBytes(t, rep2), want) {
			t.Errorf("k=%d: second finalization differs from the first", k)
		}
	}
}

// TestPartialMergeModeMismatch: exact and sketch partials refuse to
// merge rather than silently mixing Figure 1 representations.
func TestPartialMergeModeMismatch(t *testing.T) {
	meta := trace.Meta{Name: "m", Start: time.Unix(0, 0).UTC(), Length: 4 * time.Hour}
	a, err := NewPartial(meta, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPartial(meta, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Fatal("merging exact with sketch partial did not error")
	}
}

// benchTrace generates the two-week CC-b trace the serving benchmarks
// also use (~11k jobs) — a realistic interactive-analytics target.
func benchTrace(tb testing.TB) *trace.Trace {
	tb.Helper()
	p, err := profile.ByName("CC-b")
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := gen.Generate(gen.Config{Profile: p, Seed: 1, Duration: 14 * 24 * time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// BenchmarkParallelAnalyze records the shard-parallel speedup: the same
// streaming analysis — BuildTracePartial, then Report — at K=1
// (sequential) versus fixed shard counts and K=NumCPU, whose arm name
// stays fixed so BENCH_ANALYZE.json's speedup_numcpu gate can name it
// (the -N suffix carries the count). On a single-core runner K=NumCPU
// degenerates to K=1 and the ratio is 1 by construction.
func BenchmarkParallelAnalyze(b *testing.B) {
	tr := benchTrace(b)
	arms := []struct {
		name string
		k    int
	}{{"K=1", 1}, {"K=2", 2}, {"K=4", 4}, {"K=NumCPU", runtime.GOMAXPROCS(0)}}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := BuildTracePartial(tr, arm.k, false)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Report(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
