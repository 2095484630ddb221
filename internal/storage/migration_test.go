package storage

import (
	"bytes"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/colseg"
	"repro/internal/core"
	"repro/internal/trace"
)

// The legacy-migration suite: a data directory written by a v5-era
// store (canonical JSONL segments, manifests with no codec, spans or
// block counts) must reopen as all-colseg with the committed
// fingerprint and byte-identical reports, survive a crash anywhere in
// the rewrite, and refuse — touching nothing — a generation whose jobs
// do not hash to its manifest.

// writeLegacyGeneration commits tr under name in root as generation 1
// the way a v5-era store wrote it: segJobs canonical JSONL lines per
// segment, real sizes and CRCs, a manifest with an empty codec and no
// spans or block counts, and p's snapshot when non-nil. Jobs from index
// colsegFrom on go to colseg segments instead, giving the mixed shape a
// codec upgrade's append left behind. It returns a handle on the
// committed generation without opening (and so migrating) the store.
func writeLegacyGeneration(t testing.TB, root, name string, tr *trace.Trace, segJobs, colsegFrom int, p *core.Partial) *Trace {
	t.Helper()
	enc, err := encodeName(name)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "traces", enc)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	const gen = 1
	man := &Manifest{
		Format:      manifestFormat,
		Generation:  gen,
		Name:        name,
		Fingerprint: fingerprint(t, tr),
		Meta:        metaToManifest(tr.Meta),
		Jobs:        tr.Len(),
		BytesMoved:  int64(tr.Summarize().BytesMoved),
	}
	for i := 0; i < colsegFrom; i += segJobs {
		var b []byte
		for _, j := range tr.Jobs[i:min(i+segJobs, colsegFrom)] {
			if b, err = trace.AppendJobLine(b, j); err != nil {
				t.Fatal(err)
			}
		}
		file := segmentFile(gen, len(man.Segments))
		if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
			t.Fatal(err)
		}
		man.Segments = append(man.Segments, SegmentInfo{
			FileInfo: FileInfo{File: file, Size: int64(len(b)), CRC32C: crc32.Checksum(b, castagnoli)},
			Jobs:     min(segJobs, colsegFrom-i),
		})
	}
	for i := colsegFrom; i < tr.Len(); i += segJobs {
		w, err := createSegment(dir, segmentFile(gen, len(man.Segments)))
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range tr.Jobs[i:min(i+segJobs, tr.Len())] {
			if err := w.write(j); err != nil {
				t.Fatal(err)
			}
		}
		info, err := w.finish()
		if err != nil {
			t.Fatal(err)
		}
		man.Segments = append(man.Segments, info)
	}
	if p != nil {
		snap, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, partialFile(gen)), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		man.Partial = &FileInfo{File: partialFile(gen), Size: int64(len(snap)), CRC32C: crc32.Checksum(snap, castagnoli)}
	}
	if err := commitManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	return &Trace{dir: dir, man: man}
}

// partialFile names generation gen's snapshot the way v5-era stores
// did, before snapshot names carried a seal sequence.
func partialFile(gen uint64) string { return genPrefix(gen) + ".partial" }

// legacyFixture is one trace to write in the legacy layout: colsegFrom
// is a fraction of its jobs (1 = pure JSONL).
type legacyFixture struct {
	name       string
	tr         *trace.Trace
	colsegFrom float64
}

// writeFixture writes f's legacy generation with its exact partial and
// returns it with the in-memory reference report bytes.
func writeFixture(t *testing.T, root string, f legacyFixture) (*Trace, []byte) {
	t.Helper()
	p, err := core.BuildPartial(trace.NewSliceSource(f.tr), false)
	if err != nil {
		t.Fatal(err)
	}
	lt := writeLegacyGeneration(t, root, f.name, f.tr, 300, int(f.colsegFrom*float64(f.tr.Len())), p)
	return lt, reportBytes(t, p)
}

// checkMigrated asserts a recovered trace is all-colseg on disk and in
// its manifest, carries the committed fingerprint, and reports exactly
// want through the disk scan, the sequential readback and the
// carried-over snapshot.
func checkMigrated(t *testing.T, st *Trace, fp string, want []byte) {
	t.Helper()
	if st.Fingerprint() != fp {
		t.Fatalf("%s: committed fingerprint %s, want %s", st.Name(), st.Fingerprint(), fp)
	}
	if st.man.legacy() {
		t.Fatalf("%s: manifest still names a JSONL segment after Open", st.Name())
	}
	for _, seg := range st.man.Segments {
		b, err := os.ReadFile(filepath.Join(st.dir, seg.File))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte(colseg.Magic)) {
			t.Fatalf("%s: segment %s lacks the columnar magic", st.Name(), seg.File)
		}
	}
	for _, workers := range []int{1, 4} {
		p, _, err := st.ParallelScanPartial(ParallelScanOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := reportBytes(t, p); !bytes.Equal(got, want) {
			t.Errorf("%s workers=%d: disk-scan report differs from the in-memory reference", st.Name(), workers)
		}
	}
	back, err := st.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, back); got != fp {
		t.Fatalf("%s: readback fingerprint %s, want %s", st.Name(), got, fp)
	}
	p, err := st.LoadPartial()
	if err != nil || p == nil {
		t.Fatalf("%s: snapshot not carried over: %v", st.Name(), err)
	}
	if got := reportBytes(t, p); !bytes.Equal(got, want) {
		t.Errorf("%s: carried-over snapshot reports different bytes", st.Name())
	}
}

// dirFiles maps every file under root to its bytes.
func dirFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		out[path] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMigrationJSONLToColumnar: the upgrade path. A v5-era data
// directory holding a pure-JSONL trace and a mixed JSONL+colseg one
// reopens with both converted, listed in Recovery.Migrated, and serving
// the committed fingerprint and the in-memory reference bytes; no
// legacy file survives, and a second Open has nothing left to migrate.
func TestMigrationJSONLToColumnar(t *testing.T) {
	root := t.TempDir()
	fixtures := []legacyFixture{
		{"alpha", genTrace(t, "CC-b", 1, 25*time.Hour), 1},
		{"beta", genTrace(t, "CC-e", 2, 26*time.Hour), 0.5},
	}
	want := map[string][]byte{}
	fps := map[string]string{}
	for _, f := range fixtures {
		_, want[f.name] = writeFixture(t, root, f)
		fps[f.name] = fingerprint(t, f.tr)
	}

	s, rec := openStore(t, root, 200)
	if len(rec.Traces) != 2 || len(rec.Dropped) != 0 {
		t.Fatalf("recovered %d traces / %d dropped from the legacy root, want 2/0: %+v", len(rec.Traces), len(rec.Dropped), rec.Dropped)
	}
	if got := strings.Join(rec.Migrated, ","); got != "alpha,beta" {
		t.Fatalf("Recovery.Migrated = %q, want alpha,beta", got)
	}
	for _, st := range rec.Traces {
		checkMigrated(t, st, fps[st.Name()], want[st.Name()])
		entries, err := os.ReadDir(st.dir)
		if err != nil {
			t.Fatal(err)
		}
		keep := st.man.fileSet()
		for _, e := range entries {
			if e.Name() != manifestName && !keep[e.Name()] {
				t.Errorf("%s: legacy file %s survived the migration", st.Name(), e.Name())
			}
		}
	}
	s.Close()

	_, rec2 := openStore(t, root, 200)
	if len(rec2.Traces) != 2 || len(rec2.Migrated) != 0 {
		t.Fatalf("second Open: %d traces, migrated %v; want 2 and none", len(rec2.Traces), rec2.Migrated)
	}
}

// TestMigrationMixedCodecs: a generation mixing JSONL and colseg
// segments in either order converts to all-colseg with identical bytes.
func TestMigrationMixedCodecs(t *testing.T) {
	tr := genTrace(t, "CC-b", 4, 26*time.Hour)
	for _, frac := range []float64{0.25, 0.75} {
		root := t.TempDir()
		_, want := writeFixture(t, root, legacyFixture{"live", tr, frac})
		_, rec := openStore(t, root, 400)
		if len(rec.Traces) != 1 || len(rec.Migrated) != 1 {
			t.Fatalf("colsegFrom=%.2f: recovered %d, migrated %v", frac, len(rec.Traces), rec.Migrated)
		}
		checkMigrated(t, rec.Traces[0], fingerprint(t, tr), want)
	}
}

// TestMigrationCrashBeforeCommit: a crash after the colseg rewrite is
// sealed but before its manifest rename reopens on the legacy
// generation and migrates it again; a crash after the rename but before
// the sweep reopens on the colseg generation. Either way the trace
// serves identical bytes.
func TestMigrationCrashBeforeCommit(t *testing.T) {
	tr := genTrace(t, "CC-e", 5, 26*time.Hour)
	fp := fingerprint(t, tr)
	for _, renamed := range []bool{false, true} {
		root := t.TempDir()
		s, _ := openStore(t, root, 300)
		legacy, want := writeFixture(t, root, legacyFixture{"live", tr, 1})
		// Crash: the rewrite's writer is never committed or closed.
		a, sealed, err := s.CompactTrace(legacy)
		if err != nil {
			t.Fatal(err)
		}
		if renamed {
			// The manifest rename landed; the sweep of the legacy files
			// did not.
			if err := commitManifest(a.dir, sealed.man); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()

		_, rec := openStore(t, root, 300)
		if len(rec.Traces) != 1 || len(rec.Dropped) != 0 {
			t.Fatalf("renamed=%t: recovered %+v", renamed, rec)
		}
		if migrated := len(rec.Migrated) == 1; migrated == renamed {
			t.Errorf("renamed=%t: Recovery.Migrated = %v", renamed, rec.Migrated)
		}
		checkMigrated(t, rec.Traces[0], fp, want)
	}
}

// TestMigrationFingerprintMismatchFailsOpen: a legacy generation whose
// jobs do not hash to its manifest fingerprint makes Open fail naming
// the trace, and leaves every file in the data directory byte-identical
// — nothing staged survives.
func TestMigrationFingerprintMismatchFailsOpen(t *testing.T) {
	root := t.TempDir()
	tr := genTrace(t, "CC-b", 6, 26*time.Hour)
	writeFixture(t, root, legacyFixture{"forged", tr, 1})
	dir := filepath.Join(root, "traces", "forged")
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	man.Fingerprint = strings.Repeat("0", len(man.Fingerprint))
	if err := commitManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, root)

	if _, _, err := Open(root, Options{SegmentJobs: 300}); err == nil || !strings.Contains(err.Error(), `"forged"`) {
		t.Fatalf("Open over a forged legacy generation: err %v, want a migration error naming the trace", err)
	}
	after := dirFiles(t, root)
	if len(after) != len(before) {
		t.Errorf("failed migration left %d files, had %d", len(after), len(before))
	}
	for path, b := range before {
		if !bytes.Equal(after[path], b) {
			t.Errorf("failed migration changed %s", path)
		}
	}
}
