package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/units"
)

// appendBatches splits tr into n contiguous batches (tr is sorted, so
// every batch respects the canonical append order).
func appendBatches(tr *trace.Trace, n int) [][]*trace.Job {
	batches := make([][]*trace.Job, 0, n)
	per := (len(tr.Jobs) + n - 1) / n
	for i := 0; i < len(tr.Jobs); i += per {
		end := i + per
		if end > len(tr.Jobs) {
			end = len(tr.Jobs)
		}
		batches = append(batches, tr.Jobs[i:end])
	}
	return batches
}

// appendAll drives one full live-append session: every batch is
// appended, sealed with its incremental fingerprint and aggregate, and
// committed. Returns the final committed fingerprint.
func appendAll(t *testing.T, s *Store, name string, meta trace.Meta, batches [][]*trace.Job) string {
	t.Helper()
	a, _, err := s.OpenAppend(name, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	hasher := trace.NewHasher()
	if err := hasher.Begin(meta); err != nil {
		t.Fatal(err)
	}
	live, err := core.NewPartial(meta, false)
	if err != nil {
		t.Fatal(err)
	}
	fp := ""
	for _, batch := range batches {
		for _, j := range batch {
			if err := a.Append(j); err != nil {
				t.Fatal(err)
			}
			if err := hasher.Write(j); err != nil {
				t.Fatal(err)
			}
			live.Observe(j)
		}
		fp = hasher.Sum()
		frozen, err := live.Clone()
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := a.Seal(fp, frozen)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Commit(sealed); err != nil {
			t.Fatal(err)
		}
	}
	return fp
}

// TestAppenderBatchedEquivalence is the storage half of the live-ingest
// equivalence gate: K batched appends must leave on disk exactly the
// trace a one-shot write of the same jobs would have — same
// fingerprint, same recovered jobs, same aggregate snapshot semantics.
func TestAppenderBatchedEquivalence(t *testing.T) {
	tr := genTrace(t, "FB-2009", 3, 26*time.Hour)
	want := fingerprint(t, tr)
	for _, k := range []int{1, 3, 7} {
		root := t.TempDir()
		s, _ := openStore(t, root, 100)
		fp := appendAll(t, s, "live", tr.Meta, appendBatches(tr, k))
		if fp != want {
			t.Fatalf("k=%d: incremental fingerprint %s, one-shot %s", k, fp, want)
		}
		s.Close()

		s2, rec := openStore(t, root, 100)
		if len(rec.Traces) != 1 || len(rec.Dropped) != 0 || len(rec.Trimmed) != 0 {
			t.Fatalf("k=%d: recovery %+v", k, rec)
		}
		got := rec.Traces[0]
		if got.Fingerprint() != want || got.Jobs() != tr.Len() {
			t.Fatalf("k=%d: recovered %s/%d jobs, want %s/%d", k, got.Fingerprint(), got.Jobs(), want, tr.Len())
		}
		back, err := got.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if bfp := fingerprint(t, back); bfp != want {
			t.Fatalf("k=%d: collected fingerprint %s, want %s", k, bfp, want)
		}
		if p, err := got.LoadPartial(); err != nil || p == nil {
			t.Fatalf("k=%d: persisted aggregate missing: %v", k, err)
		} else if p.Jobs() != tr.Len() {
			t.Fatalf("k=%d: aggregate covers %d jobs, want %d", k, p.Jobs(), tr.Len())
		}
		// Exactly one snapshot file survives: each commit garbage-collects
		// the previous batch's.
		entries, err := os.ReadDir(filepath.Join(root, "traces", "live"))
		if err != nil {
			t.Fatal(err)
		}
		partials := 0
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".partial") {
				partials++
			}
		}
		if partials != 1 {
			t.Fatalf("k=%d: %d snapshot files on disk, want 1", k, partials)
		}
		// Zone maps: every committed segment records its submit span.
		for _, seg := range got.man.Segments {
			if seg.MinSubmitSec == 0 && seg.MaxSubmitSec == 0 {
				t.Fatalf("k=%d: segment %s has no submit span", k, seg.File)
			}
		}
		s2.Close()
	}
}

// TestAppenderResume continues an appended trace across appender
// lifetimes (as a server restart does), from a committed checkpoint that
// lags the manifest: the resumed appender must start a new segment
// file, keep the batch-snapshot sequence moving without rewriting the
// committed checkpoint in place, and land on the same fingerprint as
// the one-shot write.
func TestAppenderResume(t *testing.T) {
	tr := genTrace(t, "CC-b", 5, 26*time.Hour)
	want := fingerprint(t, tr)
	batches := appendBatches(tr, 4)

	root := t.TempDir()
	s, _ := openStore(t, root, 60)
	first := openLive(t, s, "live", tr.Meta)
	var last *Trace
	for _, batch := range smallBatches(tr.Jobs[:len(batches[0])+len(batches[1])], 11) {
		last = first.commit(t, batch)
	}
	first.a.Close()
	lagging := *last.man.Partial
	if checkpointJobs(t, last) == last.Jobs() {
		t.Fatal("the committed checkpoint covers every job; the test needs a lagging one")
	}
	laggingPath := filepath.Join(root, "traces", "live", lagging.File)
	laggingBytes, err := os.ReadFile(laggingPath)
	if err != nil {
		t.Fatal(err)
	}
	seqOf := func(file string) int {
		var g uint64
		var seq int
		if _, err := fmt.Sscanf(file, "g%06d-b%06d.partial", &g, &seq); err != nil {
			t.Fatalf("snapshot %q is not a batch snapshot: %v", file, err)
		}
		return seq
	}

	// Resume: replay the committed prefix through a fresh hasher and
	// aggregate exactly as the serving layer does, then continue.
	a, committed, err := s.OpenAppend("live", tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if committed == nil {
		t.Fatal("resume did not surface the committed state")
	}
	segsBefore := committed.Segments()
	hasher := trace.NewHasher()
	if err := hasher.Begin(tr.Meta); err != nil {
		t.Fatal(err)
	}
	live, err := core.NewPartial(tr.Meta, false)
	if err != nil {
		t.Fatal(err)
	}
	err = committed.Each(func(j *trace.Job) error {
		live.Observe(j)
		return hasher.Write(j)
	})
	if err != nil {
		t.Fatal(err)
	}
	fp := ""
	for i, batch := range batches[2:] {
		for _, j := range batch {
			if err := a.Append(j); err != nil {
				t.Fatal(err)
			}
			if err := hasher.Write(j); err != nil {
				t.Fatal(err)
			}
			live.Observe(j)
		}
		fp = hasher.Sum()
		frozen, err := live.Clone()
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := a.Seal(fp, frozen)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// The resumed appender's first seal checkpoints under a later
			// sequence number, leaving the committed checkpoint as it was.
			if next := sealed.man.Partial.File; seqOf(next) <= seqOf(lagging.File) {
				t.Fatalf("resumed checkpoint %s does not follow the committed %s", next, lagging.File)
			}
			if b, err := os.ReadFile(laggingPath); err != nil || !bytes.Equal(b, laggingBytes) {
				t.Fatalf("the committed checkpoint was rewritten before its successor committed: %v", err)
			}
		}
		if _, err := a.Commit(sealed); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	if _, err := os.Stat(laggingPath); !os.IsNotExist(err) {
		t.Fatalf("the superseded checkpoint %s was not collected: %v", lagging.File, err)
	}
	if fp != want {
		t.Fatalf("resumed fingerprint %s, want one-shot %s", fp, want)
	}
	s.Close()

	s2, rec := openStore(t, root, 60)
	defer s2.Close()
	if len(rec.Traces) != 1 || rec.Traces[0].Fingerprint() != want || rec.Traces[0].Jobs() != tr.Len() {
		t.Fatalf("recovery after resume: %+v", rec)
	}
	if got := rec.Traces[0].Segments(); got <= segsBefore {
		t.Fatalf("resume did not add segments: %d before, %d after", segsBefore, got)
	}
}

// TestAppendCrashTailTrim is the live-ingest crash acceptance: a crash
// after a committed batch, with uncommitted appends sitting past the
// committed boundary of the open segment, must recover to exactly the
// last committed batch — the tail trimmed, nothing else lost.
func TestAppendCrashTailTrim(t *testing.T) {
	tr := genTrace(t, "FB-2010", 7, 26*time.Hour)
	batches := appendBatches(tr, 3)

	root := t.TempDir()
	s, _ := openStore(t, root, 10_000)
	a, _, err := s.OpenAppend("live", tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	hasher := trace.NewHasher()
	if err := hasher.Begin(tr.Meta); err != nil {
		t.Fatal(err)
	}
	for _, j := range batches[0] {
		if err := a.Append(j); err != nil {
			t.Fatal(err)
		}
		if err := hasher.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	committedFP := hasher.Sum()
	sealed, err := a.Seal(committedFP, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(sealed); err != nil {
		t.Fatal(err)
	}
	// Batch 2 is appended but never sealed: its bytes may reach the file,
	// the manifest never hears about them. Close flushes nothing extra —
	// then force a deterministic torn tail on top.
	for _, j := range batches[1] {
		if err := a.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	s.Close()

	segs, err := filepath.Glob(filepath.Join(root, "traces", "live", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments on disk: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn garbage the crash left behind")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, rec := openStore(t, root, 10_000)
	defer s2.Close()
	if len(rec.Traces) != 1 || len(rec.Dropped) != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
	if len(rec.Trimmed) == 0 {
		t.Fatal("recovery reported no trimmed tail")
	}
	got := rec.Traces[0]
	if got.Fingerprint() != committedFP || got.Jobs() != len(batches[0]) {
		t.Fatalf("recovered %s/%d jobs, want committed %s/%d", got.Fingerprint(), got.Jobs(), committedFP, len(batches[0]))
	}
	back, err := got.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if bfp := fingerprint(t, back); bfp != committedFP {
		t.Fatalf("collected fingerprint %s, want %s", bfp, committedFP)
	}
}

// syntheticTrace builds n evenly spaced jobs across length — exact
// submit spans for the pruning assertions below.
func syntheticTrace(name string, n int, length time.Duration) *trace.Trace {
	start := time.Unix(1_700_000_000, 0).UTC()
	tr := trace.New(trace.Meta{Name: name, Machines: 100, Start: start, Length: length})
	step := length / time.Duration(n)
	for i := 0; i < n; i++ {
		tr.Add(&trace.Job{
			ID:          int64(i),
			SubmitTime:  start.Add(time.Duration(i) * step),
			Duration:    time.Minute,
			InputBytes:  units.Bytes(1 << 20),
			OutputBytes: units.Bytes(1 << 18),
			MapTime:     60,
			MapTasks:    4,
		})
	}
	return tr
}

// TestWindowShardsPruning proves windowed scans skip work by decode
// counters, not timing: manifest submit spans prune whole segments, and
// colseg zone maps prune blocks inside the kept boundary segments.
func TestWindowShardsPruning(t *testing.T) {
	t.Run("segments", func(t *testing.T) {
		// 12k jobs over 24h, 1000 per segment → 12 segments of ~2h each.
		tr := syntheticTrace("prune-seg", 12_000, 24*time.Hour)
		s, _ := openStore(t, t.TempDir(), 1000)
		st := writeTrace(t, s, "w", tr)

		from := tr.Meta.Start.Add(6 * time.Hour)
		to := tr.Meta.Start.Add(8 * time.Hour)
		shards, stats := st.WindowShards(from, to)
		if stats.SegmentsPruned < 8 {
			t.Fatalf("pruned %d of %d segments, want ≥8", stats.SegmentsPruned, stats.Segments)
		}
		in := drainCount(t, shards, from, to)
		if want := 1000; in != want {
			t.Fatalf("window holds %d jobs, want %d", in, want)
		}
		// Every kept segment is one colseg block here (1000 < block size),
		// so the decode counter must equal the kept segments exactly.
		if kept := int64(stats.Segments - stats.SegmentsPruned); stats.BlocksRead() != kept {
			t.Fatalf("decoded %d blocks for %d kept segments", stats.BlocksRead(), kept)
		}
	})
	t.Run("blocks", func(t *testing.T) {
		// One big segment of 12k jobs → 3 colseg blocks of 4096; a window
		// inside the first block must leave the others undecoded.
		tr := syntheticTrace("prune-blk", 12_000, 24*time.Hour)
		s, _ := openStore(t, t.TempDir(), 100_000)
		st := writeTrace(t, s, "w", tr)

		from := tr.Meta.Start
		to := tr.Meta.Start.Add(2 * time.Hour)
		shards, stats := st.WindowShards(from, to)
		if stats.Segments != 1 || stats.SegmentsPruned != 0 {
			t.Fatalf("segment layout %d/%d, want a single kept segment", stats.Segments, stats.SegmentsPruned)
		}
		in := drainCount(t, shards, from, to)
		if want := 1000; in != want {
			t.Fatalf("window holds %d jobs, want %d", in, want)
		}
		if stats.BlocksPruned() == 0 {
			t.Fatal("no blocks pruned: the zone maps did not cut the scan")
		}
		if stats.BlocksRead() == 0 || stats.BlocksRead()+stats.BlocksPruned() != 3 {
			t.Fatalf("decode counters read=%d pruned=%d, want 3 blocks total", stats.BlocksRead(), stats.BlocksPruned())
		}
	})
}

// drainCount drains windowed shards, counting jobs inside [from, to).
func drainCount(t *testing.T, shards []trace.Source, from, to time.Time) int {
	t.Helper()
	in := 0
	for _, sh := range shards {
		for {
			j, err := sh.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !j.SubmitTime.Before(from) && j.SubmitTime.Before(to) {
				in++
			}
		}
	}
	return in
}

// TestSegmentSourceClose covers the fd-leak fix: a reader abandoning a
// segment mid-stream — by Close, or by an Each callback that fails —
// releases its descriptor and pooled buffers at once, and so does every
// WindowShards source closed after its first job.
func TestSegmentSourceClose(t *testing.T) {
	tr := genTrace(t, "CC-b", 11, 26*time.Hour)
	s, _ := openStore(t, t.TempDir(), 100)
	st := writeTrace(t, s, "w", tr)
	released := func(src *segmentSource) {
		t.Helper()
		if !src.done || src.f != nil || src.frame != nil || src.jobs != nil {
			t.Fatal("an abandoned segment source kept its descriptor or buffers")
		}
	}

	src := st.source(st.man.Segments[0], nil, nil)
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	released(src)
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("Next after Close: %v, want io.EOF", err)
	}

	stop := errors.New("stop")
	src = st.source(st.man.Segments[0], nil, nil)
	if err := src.each(func(*trace.Job) error { return stop }); err != stop {
		t.Fatalf("each returned %v, want the callback's error", err)
	}
	released(src)
	if err := st.Each(func(*trace.Job) error { return stop }); !errors.Is(err, stop) {
		t.Fatalf("Each returned %v, want the callback's error", err)
	}

	meta := st.Meta()
	shards, _ := st.WindowShards(meta.Start, meta.Start.Add(meta.Length))
	for _, sh := range shards {
		if _, err := sh.Next(); err != nil {
			t.Fatal(err)
		}
		if c, ok := sh.(io.Closer); !ok {
			t.Fatal("shard is not closable")
		} else if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		released(sh.(*segmentSource))
	}
}
