package storage

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// dirNames lists the files in dir, sorted; none when dir is absent.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	return names
}

// wantFiles is what a trace directory holds when man (nil for none) is
// its committed manifest and nothing else is on disk: the manifest and
// the files it names.
func wantFiles(man *Manifest) []string {
	var names []string
	if man != nil {
		names = append(names, manifestName)
		for f := range man.fileSet() {
			names = append(names, f)
		}
	}
	slices.Sort(names)
	return names
}

// TestWriterLifecycle is the one writer's protocol table: a generation
// started by Create over a committed one, by OpenAppend of a new name,
// and by OpenAppend continuing a committed generation, each ended by
// commit then Close, by Close before Seal, and by Close after a Seal
// that never commits. Afterwards the trace directory holds exactly the
// committed manifest's files — a created generation that never
// committed leaves nothing — and a reopen serves the committed
// generation with the same jobs and fingerprint. The one exception is
// what a continued generation wrote past its last commit: Close removes
// only an open segment no seal reached and leaves the rest for
// recovery to sweep, so there the directory is exact after the reopen.
func TestWriterLifecycle(t *testing.T) {
	tr := genTrace(t, "CC-e", 3, 26*time.Hour)
	cut := tr.Len() / 2
	head := trace.New(tr.Meta)
	head.Jobs = tr.Jobs[:cut]
	full, err := core.BuildTracePartial(tr, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name    string
		prior   bool // head is committed before the writer opens
		resume  bool // the writer continues head, appending the rest
		partial *core.Partial
		open    func(*Store) (*Appender, error)
	}{
		// The streaming whole-trace write: every job appended one at a
		// time, read back before commit, sealed without a snapshot.
		{"Create", true, false, nil, func(s *Store) (*Appender, error) { return s.Create("x", tr.Meta) }},
		{"OpenAppend-new", false, false, full, func(s *Store) (*Appender, error) {
			a, _, err := s.OpenAppend("x", tr.Meta)
			return a, err
		}},
		{"OpenAppend-continue", true, true, full, func(s *Store) (*Appender, error) {
			a, _, err := s.OpenAppend("x", tr.Meta)
			return a, err
		}},
	}
	for _, row := range rows {
		for _, outcome := range []string{"commit", "close-before-seal", "close-after-seal"} {
			t.Run(row.name+"/"+outcome, func(t *testing.T) {
				root := t.TempDir()
				s, _ := openStore(t, root, 300)
				var want *Trace // the committed generation after the outcome
				if row.prior {
					want = writeTrace(t, s, "x", head)
				}
				a, err := row.open(s)
				if err != nil {
					t.Fatal(err)
				}
				jobs := tr.Jobs
				if row.resume {
					jobs = tr.Jobs[cut:]
				}
				for _, j := range jobs {
					if err := a.Append(j); err != nil {
						t.Fatal(err)
					}
				}
				switch outcome {
				case "commit":
					// Pre-commit readback sees the whole generation.
					n := 0
					if err := a.Each(func(*trace.Job) error { n++; return nil }); err != nil {
						t.Fatal(err)
					}
					if n != tr.Len() {
						t.Fatalf("pre-commit readback saw %d jobs, want %d", n, tr.Len())
					}
					sealed, err := a.Seal(fingerprint(t, tr), row.partial)
					if err != nil {
						t.Fatal(err)
					}
					if want, err = a.Commit(sealed); err != nil {
						t.Fatal(err)
					}
					if (want.man.Partial != nil) != (row.partial != nil) {
						t.Fatalf("committed snapshot %+v for partial %v", want.man.Partial, row.partial != nil)
					}
				case "close-after-seal":
					if _, err := a.Seal(fingerprint(t, tr), row.partial); err != nil {
						t.Fatal(err)
					}
				}
				if err := a.Close(); err != nil {
					t.Fatal(err)
				}

				dir := filepath.Join(root, "traces", "x")
				var man *Manifest
				if want != nil {
					man = want.man
				}
				if !row.resume || outcome == "commit" {
					if got := dirNames(t, dir); !slices.Equal(got, wantFiles(man)) {
						t.Fatalf("after Close the directory holds %v, want %v", got, wantFiles(man))
					}
				}
				s.Close()
				s2, rec := openStore(t, root, 300)
				defer s2.Close()
				if got := dirNames(t, dir); !slices.Equal(got, wantFiles(man)) {
					t.Fatalf("after reopen the directory holds %v, want %v", got, wantFiles(man))
				}
				if want == nil {
					if len(rec.Traces) != 0 {
						t.Fatalf("reopen recovered %d traces, want none", len(rec.Traces))
					}
					return
				}
				if len(rec.Traces) != 1 {
					t.Fatalf("reopen recovered %d traces, want 1", len(rec.Traces))
				}
				got := rec.Traces[0]
				if got.Jobs() != want.Jobs() || got.Fingerprint() != want.Fingerprint() {
					t.Fatalf("reopened %d jobs / %.12s, want %d / %.12s", got.Jobs(), got.Fingerprint(), want.Jobs(), want.Fingerprint())
				}
				back, err := got.Collect()
				if err != nil {
					t.Fatal(err)
				}
				if fp := fingerprint(t, back); fp != want.Fingerprint() {
					t.Fatalf("readback fingerprint %.12s, want %.12s", fp, want.Fingerprint())
				}
			})
		}
	}
}

// TestAbandonedWriterKeepsSharedDirectory: two first writes to one new
// name — two uploads, or an upload and a first append — each get their
// own generation in the one trace directory. Abandoning one (a rejected
// or failed upload) while the other has not yet written its first
// segment removes only the abandoned writer's files, never the
// directory, and the other writer commits normally.
func TestAbandonedWriterKeepsSharedDirectory(t *testing.T) {
	tr := genTrace(t, "CC-e", 3, 26*time.Hour)
	fp := fingerprint(t, tr)
	opens := []struct {
		name string
		open func(*Store) (*Appender, error)
	}{
		{"Create", func(s *Store) (*Appender, error) { return s.Create("x", tr.Meta) }},
		{"OpenAppend", func(s *Store) (*Appender, error) {
			a, _, err := s.OpenAppend("x", tr.Meta)
			return a, err
		}},
	}
	for _, first := range opens {
		for _, second := range opens {
			t.Run(first.name+"-"+second.name, func(t *testing.T) {
				root := t.TempDir()
				s, _ := openStore(t, root, 300)
				abandoned, err := first.open(s)
				if err != nil {
					t.Fatal(err)
				}
				kept, err := second.open(s)
				if err != nil {
					t.Fatal(err)
				}
				// Fewer jobs than one segment holds: the abandoned writer's
				// open segment is its only file.
				for _, j := range tr.Jobs[:100] {
					if err := abandoned.Append(j); err != nil {
						t.Fatal(err)
					}
				}
				if err := abandoned.Close(); err != nil {
					t.Fatal(err)
				}
				for _, j := range tr.Jobs {
					if err := kept.Append(j); err != nil {
						t.Fatal(err)
					}
				}
				sealed, err := kept.Seal(fp, nil)
				if err != nil {
					t.Fatal(err)
				}
				committed, err := kept.Commit(sealed)
				if err != nil {
					t.Fatal(err)
				}
				if err := kept.Close(); err != nil {
					t.Fatal(err)
				}
				if got, want := dirNames(t, committed.dir), wantFiles(committed.man); !slices.Equal(got, want) {
					t.Fatalf("directory holds %v, want %v", got, want)
				}
				s.Close()
				_, rec := openStore(t, root, 300)
				if len(rec.Traces) != 1 || rec.Traces[0].Fingerprint() != fp || rec.Traces[0].Jobs() != tr.Len() {
					t.Fatalf("reopen recovered %+v, want one trace %.12s/%d", rec.Traces, fp, tr.Len())
				}
			})
		}
	}
}
