package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestCompactTraceIdentity is the compaction acceptance gate: rewriting
// a fragmented generation must preserve the fingerprint and the report
// bytes exactly while actually packing — fewer segments, fewer blocks
// — and must never re-trigger on its own output.
func TestCompactTraceIdentity(t *testing.T) {
	tr := genTrace(t, "FB-2009", 1, 24*time.Hour)
	root := t.TempDir()
	s, _ := openStore(t, root, 2000)
	tt, fp := fragmentTrace(t, s, "live", tr, 8, 3)
	if want := fingerprint(t, tr); fp != want {
		t.Fatalf("fragmented fingerprint %s, want one-shot %s", fp, want)
	}
	if !s.NeedsCompaction(tt) {
		t.Fatal("a session-fragmented trace must trigger compaction")
	}
	ref, err := core.BuildPartial(trace.NewSliceSource(tr), false)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, ref)
	segsBefore, blocksBefore := tt.Segments(), tt.Blocks()

	a, sealed, err := s.CompactTrace(tt)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ct, err := a.Commit(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Fingerprint() != fp {
		t.Fatalf("compacted fingerprint %s, want %s", ct.Fingerprint(), fp)
	}
	if ct.Jobs() != tr.Len() || ct.BytesMoved() != tt.BytesMoved() {
		t.Fatalf("compacted totals jobs=%d bytes=%d, want jobs=%d bytes=%d",
			ct.Jobs(), ct.BytesMoved(), tr.Len(), tt.BytesMoved())
	}
	if !ct.man.Compacted {
		t.Fatal("compacted manifest not marked")
	}
	if ct.Segments() >= segsBefore {
		t.Fatalf("compaction kept %d segments (was %d)", ct.Segments(), segsBefore)
	}
	if ct.Blocks() >= blocksBefore {
		t.Fatalf("compaction kept %d blocks (was %d)", ct.Blocks(), blocksBefore)
	}
	if s.NeedsCompaction(ct) {
		t.Fatal("a compacted generation must not re-trigger")
	}

	// The rewrite is a byte-identical no-op for every read path: the
	// canonical readback hashes to the same fingerprint, and both scan
	// paths reproduce the reference report exactly.
	back, err := ct.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if gotFP := fingerprint(t, back); gotFP != fp {
		t.Fatalf("compacted readback fingerprint %s, want %s", gotFP, fp)
	}
	seq, err := core.BuildPartial(trace.NewSliceSource(back), false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, seq), want) {
		t.Error("sequential scan of the compacted generation diverges")
	}
	par, _, err := ct.ParallelScanPartial(ParallelScanOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, par), want) {
		t.Error("parallel scan of the compacted generation diverges")
	}
	// The aggregate snapshot rode along.
	if p, err := ct.LoadPartial(); err != nil || p == nil || p.Jobs() != tr.Len() {
		t.Fatalf("carried-over partial: %v (jobs %v)", err, p != nil)
	}
	// The old generation's files are gone; only the compacted one (and
	// its manifest) remains.
	entries, err := os.ReadDir(filepath.Join(root, "traces", "live"))
	if err != nil {
		t.Fatal(err)
	}
	keep := ct.man.fileSet()
	for _, e := range entries {
		if e.Name() == manifestName || keep[e.Name()] {
			continue
		}
		t.Errorf("stale file %s survived the compaction sweep", e.Name())
	}

	// Recovery serves the compacted generation.
	s.Close()
	s2, rec := openStore(t, root, 2000)
	defer s2.Close()
	if len(rec.Traces) != 1 || len(rec.Dropped) != 0 {
		t.Fatalf("recovery after compaction: %+v", rec)
	}
	got := rec.Traces[0]
	if got.Fingerprint() != fp || got.Jobs() != tr.Len() || !got.man.Compacted {
		t.Fatalf("recovered %s/%d jobs compacted=%t, want %s/%d compacted", got.Fingerprint(), got.Jobs(), got.man.Compacted, fp, tr.Len())
	}
}

// TestCrashMidCompaction: a crash between sealing the rewrite and
// committing its manifest must cost nothing — recovery serves the old
// generation untouched and sweeps the orphaned files.
func TestCrashMidCompaction(t *testing.T) {
	tr := genTrace(t, "CC-b", 2, 26*time.Hour)
	root := t.TempDir()
	s, _ := openStore(t, root, 2000)
	tt, fp := fragmentTrace(t, s, "live", tr, 8, 2)
	segsBefore := tt.Segments()

	// Crash: the rewrite's writer is neither committed nor closed. Its
	// sealed segment files sit in the trace directory as a future
	// generation.
	if _, _, err := s.CompactTrace(tt); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "traces", "live")
	staged := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := tt.man.fileSet()
	for _, e := range entries {
		if e.Name() != manifestName && !keep[e.Name()] {
			staged++
		}
	}
	if staged == 0 {
		t.Fatal("no staged files to crash on — the test lost its premise")
	}
	s.Close()

	s2, rec := openStore(t, root, 2000)
	defer s2.Close()
	if len(rec.Traces) != 1 || len(rec.Dropped) != 0 {
		t.Fatalf("recovery after mid-compaction crash: %+v", rec)
	}
	got := rec.Traces[0]
	if got.Fingerprint() != fp || got.Jobs() != tr.Len() || got.man.Compacted || got.Segments() != segsBefore {
		t.Fatalf("recovered %s/%d jobs segments=%d compacted=%t, want the old generation (%s/%d, %d segments)",
			got.Fingerprint(), got.Jobs(), got.Segments(), got.man.Compacted, fp, tr.Len(), segsBefore)
	}
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != manifestName && !keep[e.Name()] {
			t.Errorf("staged file %s survived recovery", e.Name())
		}
	}
	// The survivor still reads end to end.
	back, err := got.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if gotFP := fingerprint(t, back); gotFP != fp {
		t.Fatalf("post-crash readback fingerprint %s, want %s", gotFP, fp)
	}
}

// TestCompactionPolicy pins the trigger edges: packed one-shot writes
// never trigger, batch-underfilled blocks do, and legacy manifests
// without block counts never trigger on fill.
func TestCompactionPolicy(t *testing.T) {
	tr := genTrace(t, "CC-b", 1, 26*time.Hour)
	s, _ := openStore(t, t.TempDir(), 0)

	packed := writeTrace(t, s, "packed", tr)
	if s.NeedsCompaction(packed) {
		t.Error("a one-shot packed write triggered compaction")
	}

	// One session, many batch commits: a single segment whose blocks
	// are cut at every batch boundary — fragmentation only the fill
	// trigger can see.
	frag, _ := fragmentTrace(t, s, "frag", tr, 1, 12)
	if frag.Segments() >= DefaultCompactMinSegments {
		t.Fatalf("premise broken: %d segments reach the segment trigger", frag.Segments())
	}
	if !s.NeedsCompaction(frag) {
		t.Error("batch-underfilled blocks did not trigger compaction")
	}

	// A legacy manifest (no per-segment block counts) leaves fill
	// unknown: the fill trigger must stay silent.
	legacyMan := *frag.man
	legacy := &Trace{dir: frag.dir, man: &legacyMan}
	legacy.man.Segments = append([]SegmentInfo(nil), frag.man.Segments...)
	for i := range legacy.man.Segments {
		legacy.man.Segments[i].Blocks = 0
	}
	if s.NeedsCompaction(legacy) {
		t.Error("legacy manifest without block counts triggered on fill")
	}

	// The Compacted mark must hold the line where the triggers alone
	// would fire: a rewrite packed at a 100-job cap, reopened at the
	// default cap, has more than DefaultCompactMinSegments segments.
	root := t.TempDir()
	small, _ := openStore(t, root, 100)
	fragSmall, _ := fragmentTrace(t, small, "frag", tr, 1, 12)
	a, sealed, err := small.CompactTrace(fragSmall)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(sealed); err != nil {
		t.Fatal(err)
	}
	a.Close()
	small.Close()
	big, rec := openStore(t, root, 0)
	if len(rec.Traces) != 1 || !rec.Traces[0].man.Compacted {
		t.Fatalf("reopen after compaction: %+v", rec)
	}
	ct := rec.Traces[0]
	if big.NeedsCompaction(ct) {
		t.Error("compacted generation re-triggered")
	}
	unmarkedMan := *ct.man
	unmarkedMan.Compacted = false
	if !big.NeedsCompaction(&Trace{dir: ct.dir, man: &unmarkedMan}) {
		t.Fatalf("premise broken: unmarked, the %d-segment compacted generation does not trigger", ct.Segments())
	}
}

// TestCompactedFlagClearedByAppend: growing a compacted trace builds a
// fresh manifest without the mark, re-arming the trigger for the new
// fragmentation the append introduces.
func TestCompactedFlagClearedByAppend(t *testing.T) {
	tr := genTrace(t, "FB-2010", 3, 26*time.Hour)
	cut := len(tr.Jobs) * 3 / 4
	head := trace.New(tr.Meta)
	head.Jobs = tr.Jobs[:cut]
	s, _ := openStore(t, t.TempDir(), 2000)
	tt, _ := fragmentTrace(t, s, "live", head, 8, 2)

	w, sealed, err := s.CompactTrace(tt)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := w.Commit(sealed)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if !ct.man.Compacted {
		t.Fatal("compacted manifest not marked")
	}

	// Resume appending: replay the committed prefix through a fresh
	// hasher (as the serving layer does), then land the tail.
	hasher := trace.NewHasher()
	if err := hasher.Begin(tr.Meta); err != nil {
		t.Fatal(err)
	}
	for _, j := range head.Jobs {
		if err := hasher.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	a, committed, err := s.OpenAppend("live", tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if committed == nil || committed.Fingerprint() != ct.Fingerprint() {
		t.Fatal("append resume did not surface the compacted generation")
	}
	for _, j := range tr.Jobs[cut:] {
		if err := a.Append(j); err != nil {
			t.Fatal(err)
		}
		if err := hasher.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	sl, err := a.Seal(hasher.Sum(), nil)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := a.Commit(sl)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if grown.man.Compacted {
		t.Error("appended generation kept the compacted mark")
	}
	if want := fingerprint(t, tr); grown.Fingerprint() != want {
		t.Errorf("append after compaction landed on %s, one-shot is %s", grown.Fingerprint(), want)
	}
}

// TestCompactionVerifiesFingerprint: a rewrite that would change the
// canonical stream must abort. Simulated by lying to the compactor
// with a manifest whose recorded fingerprint cannot match.
func TestCompactionVerifiesFingerprint(t *testing.T) {
	tr := genTrace(t, "CC-b", 6, 26*time.Hour)
	root := t.TempDir()
	s, _ := openStore(t, root, 2000)
	tt, _ := fragmentTrace(t, s, "live", tr, 8, 2)

	forgedMan := *tt.man
	forgedMan.Fingerprint = strings.Repeat("0", len(tt.man.Fingerprint))
	forged := &Trace{dir: tt.dir, man: &forgedMan}
	if _, _, err := s.CompactTrace(forged); err == nil {
		t.Fatal("compaction committed a generation whose rewrite hash mismatched the manifest")
	}
	// The abandoned rewrite left no litter behind.
	entries, err := os.ReadDir(filepath.Join(root, "traces", "live"))
	if err != nil {
		t.Fatal(err)
	}
	keep := tt.man.fileSet()
	for _, e := range entries {
		if e.Name() != manifestName && !keep[e.Name()] {
			t.Errorf("aborted compaction left %s behind", e.Name())
		}
	}
}
