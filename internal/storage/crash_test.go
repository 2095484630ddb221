package storage

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// The crash-safety regression suite: simulate torn writes the way a
// power cut leaves them — truncated segments, truncated or missing
// manifests, stray uncommitted generations — and assert recovery drops
// exactly the damaged trace while intact traces stay serveable.

// corruptibleStore writes two traces and returns the root plus the
// victim's directory.
func corruptibleStore(t *testing.T) (root, victimDir string) {
	t.Helper()
	root = t.TempDir()
	s, _ := openStore(t, root, 200)
	writeTrace(t, s, "victim", genTrace(t, "CC-b", 1, 25*time.Hour))
	writeTrace(t, s, "intact", genTrace(t, "CC-e", 2, 25*time.Hour))
	s.Close()
	enc, err := encodeName("victim")
	if err != nil {
		t.Fatal(err)
	}
	return root, filepath.Join(root, "traces", enc)
}

// reopenExpectingDrop reopens the store and asserts "victim" was
// dropped for the expected reason fragment while "intact" survived and
// still verifies end to end.
func reopenExpectingDrop(t *testing.T, root, reasonFragment string) {
	t.Helper()
	s, rec := openStore(t, root, 200)
	defer s.Close()
	if len(rec.Traces) != 1 || rec.Traces[0].Name() != "intact" {
		names := make([]string, 0, len(rec.Traces))
		for _, tr := range rec.Traces {
			names = append(names, tr.Name())
		}
		t.Fatalf("recovered %v, want exactly [intact]", names)
	}
	if len(rec.Dropped) != 1 || rec.Dropped[0].Name != "victim" {
		t.Fatalf("dropped %+v, want exactly victim", rec.Dropped)
	}
	if !strings.Contains(rec.Dropped[0].Reason, reasonFragment) {
		t.Errorf("drop reason %q does not mention %q", rec.Dropped[0].Reason, reasonFragment)
	}
	// The victim's directory is gone — recovery cleans, not quarantines.
	enc, _ := encodeName("victim")
	if _, err := os.Stat(filepath.Join(root, "traces", enc)); !os.IsNotExist(err) {
		t.Errorf("victim directory still present after recovery (err=%v)", err)
	}
	// The survivor still reads back in full.
	intact := rec.Traces[0]
	tr, err := intact.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != intact.Jobs() {
		t.Errorf("intact trace reads %d jobs, manifest says %d", tr.Len(), intact.Jobs())
	}
	if p, err := intact.LoadPartial(); err != nil || p == nil {
		t.Errorf("intact trace's partial did not survive: %v", err)
	}
}

// mustOneSegment returns the path of one committed segment file.
func mustOneSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "g*-*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files in %s (%v)", dir, err)
	}
	return matches[0]
}

func truncateFile(t *testing.T, path string, toFraction float64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(float64(fi.Size())*toFraction)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryDropsTornSegment: a segment truncated mid-file (the
// classic torn tail) drops the whole trace cleanly.
func TestRecoveryDropsTornSegment(t *testing.T) {
	root, victim := corruptibleStore(t)
	truncateFile(t, mustOneSegment(t, victim), 0.6)
	reopenExpectingDrop(t, root, "torn trace")
}

// TestRecoveryDropsCorruptSegment: same size, flipped bytes — the CRC
// catches silent corruption, not just truncation.
func TestRecoveryDropsCorruptSegment(t *testing.T) {
	root, victim := corruptibleStore(t)
	seg := mustOneSegment(t, victim)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	reopenExpectingDrop(t, root, "CRC mismatch")
}

// TestRecoveryDropsTornManifest: a manifest truncated mid-write (as if
// the rename protocol had been violated by a crash inside a non-atomic
// filesystem) is unparsable and drops the trace.
func TestRecoveryDropsTornManifest(t *testing.T) {
	root, victim := corruptibleStore(t)
	truncateFile(t, filepath.Join(victim, manifestName), 0.5)
	reopenExpectingDrop(t, root, "unreadable manifest")
}

// TestRecoveryDropsUncommittedTrace: segments without a manifest — a
// crash before the first commit — leave nothing serveable.
func TestRecoveryDropsUncommittedTrace(t *testing.T) {
	root, victim := corruptibleStore(t)
	if err := os.Remove(filepath.Join(victim, manifestName)); err != nil {
		t.Fatal(err)
	}
	reopenExpectingDrop(t, root, "no committed manifest")
}

// TestRecoveryKeepsTraceWhenPartialDamaged: the aggregate snapshot is
// derived data — a torn snapshot must cost the snapshot, not the trace.
func TestRecoveryKeepsTraceWhenPartialDamaged(t *testing.T) {
	root, victim := corruptibleStore(t)
	matches, err := filepath.Glob(filepath.Join(victim, "g*.partial"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want one partial snapshot, got %v (%v)", matches, err)
	}
	truncateFile(t, matches[0], 0.5)

	s, rec := openStore(t, root, 200)
	defer s.Close()
	if len(rec.Traces) != 2 || len(rec.Dropped) != 0 {
		t.Fatalf("recovered %d traces / %d dropped, want 2/0", len(rec.Traces), len(rec.Dropped))
	}
	for _, tr := range rec.Traces {
		if tr.Name() != "victim" {
			continue
		}
		if _, err := tr.LoadPartial(); err == nil {
			t.Error("damaged partial loaded without error")
		}
		// The jobs themselves still read in full.
		got, err := tr.Collect()
		if err != nil || got.Len() != tr.Jobs() {
			t.Errorf("victim's jobs unreadable after partial damage: %v", err)
		}
	}
}

// TestRecoverySweepsStrayGeneration: files of a crashed newer stage
// (no manifest pointing at them) are removed and the committed
// generation keeps serving.
func TestRecoverySweepsStrayGeneration(t *testing.T) {
	root, victim := corruptibleStore(t)
	stray := filepath.Join(victim, segmentFile(99, 0))
	if err := os.WriteFile(stray, []byte(`{"id":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	strayTmp := filepath.Join(victim, manifestName+".tmp")
	if err := os.WriteFile(strayTmp, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, rec := openStore(t, root, 200)
	defer s.Close()
	if len(rec.Traces) != 2 || len(rec.Dropped) != 0 {
		t.Fatalf("recovered %d traces / %d dropped, want 2/0", len(rec.Traces), len(rec.Dropped))
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("stray future-generation segment survived recovery")
	}
	if _, err := os.Stat(strayTmp); !os.IsNotExist(err) {
		t.Error("stray manifest tmp survived recovery")
	}
}

// readVictimManifest loads the victim's committed manifest directly.
func readVictimManifest(t *testing.T, victimDir string) *Manifest {
	t.Helper()
	man, err := readManifest(filepath.Join(victimDir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestColumnarSegmentsAreDefault: the corruptible store writes columnar
// segments — so every crash test in this file is exercising the binary
// format's torn-write behavior, not legacy JSONL's.
func TestColumnarSegmentsAreDefault(t *testing.T) {
	_, victim := corruptibleStore(t)
	man := readVictimManifest(t, victim)
	if len(man.Segments) == 0 {
		t.Fatal("no segments committed")
	}
	for _, seg := range man.Segments {
		if seg.Codec != CodecColumnar {
			t.Fatalf("segment %s has codec %q, want %q", seg.File, seg.Codec, CodecColumnar)
		}
	}
}

// TestRecoveryDropsColumnarTornHeader: a columnar segment cut inside its
// 8-byte magic — the smallest possible torn write — drops the trace.
func TestRecoveryDropsColumnarTornHeader(t *testing.T) {
	root, victim := corruptibleStore(t)
	seg := mustOneSegment(t, victim)
	if err := os.Truncate(seg, 4); err != nil {
		t.Fatal(err)
	}
	reopenExpectingDrop(t, root, "torn trace")
}

// TestRecoveryDropsColumnarBitFlips: single-bit damage anywhere in a
// columnar segment — the header, the block stats and dictionary up
// front, the last column byte at the tail — fails verification and
// drops the trace while the intact trace keeps serving.
func TestRecoveryDropsColumnarBitFlips(t *testing.T) {
	for _, tc := range []struct {
		name   string
		offset func(size int) int
	}{
		{"header", func(int) int { return 2 }},
		{"dictionary", func(int) int { return 24 }}, // frame length + CRC + stats land well before 24; this is dict/early-column territory
		{"tail", func(size int) int { return size - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root, victim := corruptibleStore(t)
			seg := mustOneSegment(t, victim)
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			b[tc.offset(len(b))] ^= 0x01
			if err := os.WriteFile(seg, b, 0o644); err != nil {
				t.Fatal(err)
			}
			reopenExpectingDrop(t, root, "CRC mismatch")
		})
	}
}

// TestColumnarBlockCRCGuardsForgedManifest: corrupt a columnar segment
// and forge the manifest's size and CRC to match the damaged bytes —
// file-level verification then passes and recovery keeps the trace, but
// the per-block CRC still refuses to decode the damage: reads fail with
// an error (never a panic, never silently different jobs) and the
// intact trace keeps serving. The block checksum is a second,
// independent line of defense below the manifest.
func TestColumnarBlockCRCGuardsForgedManifest(t *testing.T) {
	root, victim := corruptibleStore(t)
	seg := mustOneSegment(t, victim)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	man := readVictimManifest(t, victim)
	for i := range man.Segments {
		if filepath.Join(victim, man.Segments[i].File) == seg {
			man.Segments[i].Size = int64(len(b))
			man.Segments[i].CRC32C = crc32Of(b)
		}
	}
	if err := commitManifest(victim, man); err != nil {
		t.Fatal(err)
	}

	s, rec := openStore(t, root, 200)
	defer s.Close()
	if len(rec.Traces) != 2 || len(rec.Dropped) != 0 {
		t.Fatalf("recovered %d traces / %d dropped, want 2/0 (forged manifest passes file-level verify)", len(rec.Traces), len(rec.Dropped))
	}
	for _, tr := range rec.Traces {
		got, err := tr.Collect()
		switch tr.Name() {
		case "victim":
			if err == nil {
				t.Error("reading the forged-manifest victim succeeded; block CRC should have caught the damage")
			} else if !strings.Contains(err.Error(), "CRC mismatch") {
				t.Errorf("victim read failed with %v, want a block CRC mismatch", err)
			}
		case "intact":
			if err != nil || got.Len() != tr.Jobs() {
				t.Errorf("intact trace unreadable beside damaged victim: %v", err)
			}
		}
	}
}

// crc32Of is the file-level CRC-32C recovery verifies against.
func crc32Of(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// TestRecoveryDropsMismatchedDirectory: a directory that is not the
// canonical home of its manifest's name is dropped (no aliasing).
func TestRecoveryDropsMismatchedDirectory(t *testing.T) {
	root, victim := corruptibleStore(t)
	renamed := filepath.Join(filepath.Dir(victim), "imposter")
	if err := os.Rename(victim, renamed); err != nil {
		t.Fatal(err)
	}
	s, rec := openStore(t, root, 200)
	defer s.Close()
	if len(rec.Traces) != 1 || rec.Traces[0].Name() != "intact" {
		t.Fatalf("recovered %d traces, want only intact", len(rec.Traces))
	}
	if len(rec.Dropped) != 1 || !strings.Contains(rec.Dropped[0].Reason, "does not match manifest name") {
		t.Fatalf("dropped %+v", rec.Dropped)
	}
}

// jobLines returns the canonical JSONL lines of jobs, as a JSONLWriter
// writes them after its header line.
func jobLines(t *testing.T, jobs []*trace.Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, &trace.Trace{Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	return b[bytes.IndexByte(b, '\n')+1:]
}

// writeLegacyGeneration commits tr under name in root as generation 1
// the way a store before colseg wrote it: segJobs canonical JSONL lines
// per segment, real sizes and CRCs, a manifest with an empty codec and
// no spans or block counts, and p's snapshot. Jobs from index
// colsegFrom on go to colseg segments instead, giving the mixed shape a
// codec upgrade's append left behind.
func writeLegacyGeneration(t *testing.T, root, name string, tr *trace.Trace, segJobs, colsegFrom int, p *core.Partial) {
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
		b := jobLines(t, tr.Jobs[i:min(i+segJobs, colsegFrom)])
		file := segmentFile(gen, len(man.Segments))
		if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
			t.Fatal(err)
		}
		man.Segments = append(man.Segments, SegmentInfo{
			FileInfo: FileInfo{File: file, Size: int64(len(b)), CRC32C: crc32Of(b)},
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
	snap, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot names carried no seal sequence then.
	file := genPrefix(gen) + ".partial"
	if err := os.WriteFile(filepath.Join(dir, file), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	man.Partial = &FileInfo{File: file, Size: int64(len(snap)), CRC32C: crc32Of(snap)}
	if err := commitManifest(dir, man); err != nil {
		t.Fatal(err)
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

// TestOpenRefusesUnreadableGeneration: a manifest that parses but names
// a segment codec or a format this build does not read is another
// version's data, not a torn write. Open fails, every time it is
// tried, with an error naming the trace and what it found, and every
// file under the root — the refused trace's and an intact neighbor's —
// stays byte-identical. The generations are a pure JSONL and a mixed
// JSONL+colseg one, as stores before colseg left them, and a colseg one
// whose manifest names another format and lacks v1's name field: the
// format is read first, so the refusal holds whatever else the
// manifest holds.
func TestOpenRefusesUnreadableGeneration(t *testing.T) {
	tr := genTrace(t, "CC-b", 4, 26*time.Hour)
	p, err := core.BuildPartial(trace.NewSliceSource(tr), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		write func(t *testing.T, s *Store, root string)
		found string
	}{
		{"jsonl", func(t *testing.T, _ *Store, root string) {
			writeLegacyGeneration(t, root, "jsonl", tr, 300, tr.Len(), p)
		}, `g000001-00000.seg holds canonical JSONL (empty codec)`},
		{"mixed", func(t *testing.T, _ *Store, root string) {
			writeLegacyGeneration(t, root, "mixed", tr, 300, tr.Len()/2, p)
		}, `g000001-00000.seg holds canonical JSONL (empty codec)`},
		{"format", func(t *testing.T, s *Store, root string) {
			st := writeTrace(t, s, "format", tr)
			man := *st.man
			man.Format, man.Name = "swim-store-v2", ""
			if err := commitManifest(st.dir, &man); err != nil {
				t.Fatal(err)
			}
		}, `manifest format "swim-store-v2"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			s, _ := openStore(t, root, 300)
			writeTrace(t, s, "intact", genTrace(t, "CC-e", 2, 25*time.Hour))
			tc.write(t, s, root)
			s.Close()
			before := dirFiles(t, root)
			for try := 1; try <= 2; try++ {
				s, _, err := Open(root, Options{SegmentJobs: 300})
				if err == nil {
					s.Close()
					t.Fatalf("Open #%d succeeded over an unreadable generation", try)
				}
				for _, want := range []string{fmt.Sprintf("trace %q", tc.name), tc.found} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("Open #%d: error %q does not name %s", try, err, want)
					}
				}
				after := dirFiles(t, root)
				if len(after) != len(before) {
					t.Errorf("Open #%d left %d files, had %d", try, len(after), len(before))
				}
				for path, b := range before {
					if !bytes.Equal(after[path], b) {
						t.Errorf("Open #%d changed or removed %s", try, path)
					}
				}
			}
		})
	}
}
