package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/profile"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTrace generates the fixed workload the golden files pin: FB-2009
// at seed 1 over one day.
func goldenTrace(t testing.TB) *trace.Trace {
	t.Helper()
	p, err := profile.ByName("FB-2009")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate(gen.Config{Profile: p, Seed: 1, Duration: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGoldenFB2009Day1 locks the full Analyze + Render output for FB-2009
// at seed 1 over one day. Any codec, generator, or analysis refactor that
// drifts the paper's reproduced figures fails here; run
// `go test ./internal/core -run Golden -update` after an intentional
// change.
func TestGoldenFB2009Day1(t *testing.T) {
	tr := goldenTrace(t)
	rep, err := Analyze(tr, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fb2009_day1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("rendered report drifted from golden file %s\n got %d bytes, want %d; first diff at byte %d\n--- got ---\n%s",
			path, buf.Len(), len(want), firstDiff(buf.Bytes(), want), clip(buf.String(), 2000))
	}
}

// TestStreamingMatchesMaterializedGolden proves the streaming pipeline
// introduces no drift: the golden trace, saved to JSONL and re-read as a
// stream, must render the identical report (for the analyses streaming
// computes) as the materialized Analyze on the in-memory trace.
func TestStreamingMatchesMaterializedGolden(t *testing.T) {
	tr := goldenTrace(t)
	opts := AnalyzeOptions{SkipClustering: true}

	matRep, err := Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mat bytes.Buffer
	if err := matRep.Render(&mat); err != nil {
		t.Fatal(err)
	}

	// Round-trip through the on-disk codec, then analyze as a stream.
	var file bytes.Buffer
	if err := trace.WriteJSONL(&file, tr); err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewJSONLReader(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	streamRep, err := AnalyzeSource(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	var str bytes.Buffer
	if err := streamRep.Render(&str); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(mat.Bytes(), str.Bytes()) {
		t.Errorf("streaming and materialized reports differ (first diff at byte %d)\n--- materialized ---\n%s\n--- streaming ---\n%s",
			firstDiff(mat.Bytes(), str.Bytes()), clip(mat.String(), 1500), clip(str.String(), 1500))
	}
}

// TestGoldenFingerprint pins the golden trace's content fingerprint —
// the same identity the serving layer uses for cache keys. It is a
// cheaper, earlier tripwire than the rendered report: any generator or
// codec change that alters even one byte of one job fails here first,
// and an intentional change updates both goldens together with -update.
func TestGoldenFingerprint(t *testing.T) {
	tr := goldenTrace(t)
	fp, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fb2009_day1.fingerprint")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(fp+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if got := fp + "\n"; got != string(want) {
		t.Errorf("golden trace fingerprint drifted:\n got %s want %s", fp, bytes.TrimSpace(want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
