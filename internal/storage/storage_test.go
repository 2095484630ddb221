package storage

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/profile"
	"repro/internal/trace"
)

// genTrace generates a normalized calibrated trace for tests.
func genTrace(t testing.TB, workload string, seed int64, dur time.Duration) *trace.Trace {
	t.Helper()
	p, err := profile.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate(gen.Config{Profile: p, Seed: seed, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	tr.Sort()
	return tr
}

func fingerprint(t testing.TB, tr *trace.Trace) string {
	t.Helper()
	fp, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func openStore(t testing.TB, root string, segJobs int) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(root, Options{SegmentJobs: segJobs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rec
}

// writeTrace writes tr through the store with its partial aggregate.
func writeTrace(t testing.TB, s *Store, name string, tr *trace.Trace) *Trace {
	t.Helper()
	p, err := core.BuildTracePartial(tr, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	return commitTrace(t, s, name, tr, p)
}

// commitTrace writes tr under name as a new generation and commits it.
func commitTrace(t testing.TB, s *Store, name string, tr *trace.Trace, p *core.Partial) *Trace {
	t.Helper()
	a, err := s.Create(name, tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, j := range tr.Jobs {
		if err := a.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := a.Seal(fingerprint(t, tr), p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := a.Commit(sealed)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWriteReopenRoundTrip: a committed trace survives Open with its
// identity, its jobs byte-for-byte (fingerprint over the readback), and
// a partial snapshot whose report matches the live aggregate's exactly.
func TestWriteReopenRoundTrip(t *testing.T) {
	root := t.TempDir()
	tr := genTrace(t, "CC-b", 1, 26*time.Hour)
	fp := fingerprint(t, tr)
	liveP, err := core.BuildTracePartial(tr, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	liveRep, err := liveP.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	liveBytes, err := json.Marshal(liveRep.JSON())
	if err != nil {
		t.Fatal(err)
	}

	s, _ := openStore(t, root, 100) // many segments on purpose
	commitTrace(t, s, "mine", tr, liveP)
	s.Close()

	s2, rec := openStore(t, root, 100)
	defer s2.Close()
	if len(rec.Dropped) != 0 {
		t.Fatalf("clean reopen dropped traces: %+v", rec.Dropped)
	}
	if len(rec.Traces) != 1 {
		t.Fatalf("recovered %d traces, want 1", len(rec.Traces))
	}
	got := rec.Traces[0]
	if got.Name() != "mine" || got.Fingerprint() != fp || got.Jobs() != tr.Len() {
		t.Fatalf("recovered identity: name=%q fp=%q jobs=%d", got.Name(), got.Fingerprint(), got.Jobs())
	}
	if got.Segments() < 2 {
		t.Fatalf("trace of %d jobs at 100/segment produced %d segments", tr.Len(), got.Segments())
	}
	if got.Meta() != tr.Meta {
		t.Fatalf("meta drifted: %+v vs %+v", got.Meta(), tr.Meta)
	}

	// The on-disk jobs are canonically identical: fingerprinting the
	// readback reproduces the committed fingerprint.
	back, err := got.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if gotFP := fingerprint(t, back); gotFP != fp {
		t.Errorf("readback fingerprint %s != committed %s", gotFP, fp)
	}

	// The persisted partial finalizes to the same report bytes.
	p, err := got.LoadPartial()
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("no partial snapshot recovered")
	}
	rep, err := p.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, liveBytes) {
		t.Error("recovered partial renders different report bytes than the live aggregate")
	}
}

// TestShardsOutOfCore: the disk scan over a many-segment trace
// produces bytes identical to the sequential in-memory analysis — the
// out-of-core scan path.
func TestShardsOutOfCore(t *testing.T) {
	s, _ := openStore(t, t.TempDir(), 500)
	tr := genTrace(t, "CC-b", 2, 26*time.Hour)
	st := writeTrace(t, s, "ooc", tr)
	if st.Segments() < 2 {
		t.Fatalf("want multiple segments, got %d", st.Segments())
	}

	p, _, err := st.ParallelScanPartial(ParallelScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rep.JSON())
	if err != nil {
		t.Fatal(err)
	}

	seqRep, err := core.AnalyzeSource(trace.NewSliceSource(tr), core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(seqRep.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("out-of-core shard analysis drifted from sequential in-memory analysis")
	}
}

// TestReplaceSweepsOldGeneration: re-writing a name commits a new
// generation and removes the old one's files; a read that opened the
// old generation keeps streaming it.
func TestReplaceSweepsOldGeneration(t *testing.T) {
	s, _ := openStore(t, t.TempDir(), 0)
	v1 := genTrace(t, "CC-b", 1, 25*time.Hour)
	v2 := genTrace(t, "CC-b", 2, 26*time.Hour)
	h1 := writeTrace(t, s, "hot", v1)
	if h1.Segments() != 1 {
		t.Fatalf("generation 1 has %d segments; the test reads one open segment across the replace", h1.Segments())
	}

	// Read generation 1, replacing it after the first job.
	var h2 *Trace
	n := 0
	err := h1.Each(func(*trace.Job) error {
		if n++; n == 1 {
			h2 = writeTrace(t, s, "hot", v2)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reader of replaced generation failed: %v", err)
	}
	if n != v1.Len() {
		t.Errorf("reader of replaced generation saw %d jobs, want %d", n, v1.Len())
	}
	if h2.Fingerprint() == h1.Fingerprint() {
		t.Fatal("test traces should differ")
	}

	// Old generation files are swept.
	entries, err := os.ReadDir(h2.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == manifestName {
			continue
		}
		if want := genPrefix(h2.man.Generation); e.Name()[:len(want)] != want {
			t.Errorf("stale file survived replacement: %s", e.Name())
		}
	}
}

// TestDeleteRemovesDirectory: delete reclaims the trace's disk and a
// reopen recovers nothing.
func TestDeleteRemovesDirectory(t *testing.T) {
	root := t.TempDir()
	s, _ := openStore(t, root, 0)
	writeTrace(t, s, "gone", genTrace(t, "CC-e", 1, 25*time.Hour))
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); err != nil {
		t.Errorf("double delete: %v", err)
	}
	s.Close()
	_, rec := openStore(t, root, 0)
	if len(rec.Traces) != 0 || len(rec.Dropped) != 0 {
		t.Errorf("after delete, recovery found %d traces / %d dropped", len(rec.Traces), len(rec.Dropped))
	}
}

// TestNameEncoding: hostile names map to safe directories and round-trip.
func TestNameEncoding(t *testing.T) {
	for _, name := range []string{"simple", "with space", "../../etc/passwd", ".hidden", "ünïcode", "a%b", "trailing."} {
		enc, err := encodeName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if enc != filepath.Base(enc) || enc == "." || enc == ".." || enc[0] == '.' {
			t.Errorf("%q encodes to unsafe %q", name, enc)
		}
		dec, err := decodeName(enc)
		if err != nil || dec != name {
			t.Errorf("%q -> %q -> %q (%v)", name, enc, dec, err)
		}
	}
	if _, err := encodeName(""); err == nil {
		t.Error("empty name accepted")
	}
}

// TestClosedStoreRefusesWrites: Close makes writers and deletes fail —
// the shutdown contract.
func TestClosedStoreRefusesWrites(t *testing.T) {
	s, _ := openStore(t, t.TempDir(), 0)
	s.Close()
	if _, err := s.Create("x", trace.Meta{}); err == nil {
		t.Error("Create after close")
	}
	if _, _, err := s.OpenAppend("x", trace.Meta{}); err == nil {
		t.Error("OpenAppend after close")
	}
	if err := s.Delete("x"); err == nil {
		t.Error("delete after close")
	}
}
