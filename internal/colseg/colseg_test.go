package colseg

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/units"
)

// genJobs generates a calibrated workload's jobs for round-trip tests.
func genJobs(t testing.TB, workload string, seed int64, dur time.Duration) []*trace.Job {
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
	return tr.Jobs
}

// newWriter returns a Writer cutting blocks at blockJobs jobs; zero or
// less keeps BlockJobs. Tests force tiny blocks to exercise framing and
// pruning.
func newWriter(w io.Writer, blockJobs int) *Writer {
	cw := NewWriter(w)
	if blockJobs > 0 {
		cw.blockJobs = blockJobs
	}
	return cw
}

// encode runs jobs through a Writer cutting blocks at blockJobs jobs
// (zero keeps BlockJobs) and returns the segment bytes.
func encode(t testing.TB, jobs []*trace.Job, blockJobs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := newWriter(&buf, blockJobs)
	for _, j := range jobs {
		if err := w.Write(j); err != nil {
			t.Fatalf("encoding job %d: %v", j.ID, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jobLine returns the canonical JSONL line of j, newline included, as
// a JSONLWriter writes it after its header line, or the writer's error
// for a job that has none.
func jobLine(j *trace.Job) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, &trace.Trace{Jobs: []*trace.Job{j}}); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	return b[bytes.IndexByte(b, '\n')+1:], nil
}

// canonical returns the canonical JSONL line of j.
func canonical(t testing.TB, j *trace.Job) []byte {
	t.Helper()
	b, err := jobLine(j)
	if err != nil {
		t.Fatalf("job %d has no canonical encoding: %v", j.ID, err)
	}
	return b
}

// assertJSONLEqual requires got and want to re-serialize to identical
// canonical JSONL, job by job.
func assertJSONLEqual(t *testing.T, got, want []*trace.Job) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := canonical(t, got[i]), canonical(t, want[i])
		if !bytes.Equal(g, w) {
			t.Fatalf("job %d drifted through the codec:\n got %s\nwant %s", i, g, w)
		}
	}
}

// TestRoundTripGenerated: a realistic generated workload (names and
// paths present) survives encode→decode with every job's canonical
// JSONL — the fingerprint bytes — intact, across block boundaries.
func TestRoundTripGenerated(t *testing.T) {
	jobs := genJobs(t, "CC-b", 1, 26*time.Hour)
	seg := encode(t, jobs, 100) // force many blocks
	got, fs, err := scanJobs(seg)
	if err != nil {
		t.Fatal(err)
	}
	if fs.BlocksRead() < 2 {
		t.Fatalf("want multiple blocks, read %d", fs.BlocksRead())
	}
	assertJSONLEqual(t, got, jobs)
}

// TestRoundTripEdgeJobs: hand-built corner cases — empty and shared
// strings, zone offsets, nanosecond times, the year bounds that
// overflow UnixNano, extreme floats, and a string large enough to
// trip the block byte cap.
func TestRoundTripEdgeJobs(t *testing.T) {
	est := time.FixedZone("", -5*3600)
	jobs := []*trace.Job{
		{ID: 0, SubmitTime: time.Time{}}, // zero time: year 1, UTC=false zone offset 0
		{ID: 1, Name: "ingest", SubmitTime: time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC)},
		{ID: 2, Name: "ingest", SubmitTime: time.Date(2010, 5, 1, 0, 0, 1, 999999999, time.UTC),
			InputPath: "/shared/path", OutputPath: "/shared/path"},
		{ID: 3, SubmitTime: time.Date(2010, 5, 1, 3, 0, 0, 500, est),
			Duration: 93 * time.Minute, InputBytes: units.TB, ShuffleBytes: 1, OutputBytes: units.GB},
		{ID: 4, SubmitTime: time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)},         // min RFC3339 year
		{ID: 5, SubmitTime: time.Date(9999, 12, 31, 23, 59, 59, 1, time.UTC)}, // max year; UnixNano overflows
		{ID: 6, SubmitTime: time.Date(2010, 5, 2, 0, 0, 0, 0, time.UTC),
			MapTime: 0.1, ReduceTime: 1e300, MapTasks: 1 << 30, ReduceTasks: 7},
		{ID: 7, SubmitTime: time.Date(2010, 5, 2, 1, 0, 0, 0, time.UTC),
			Name: strings.Repeat("n", 2<<20)}, // outgrows maxBlockBytes
		{ID: 8, SubmitTime: time.Date(2010, 5, 2, 2, 0, 0, 0, time.UTC), Name: "after-big"},
	}
	seg := encode(t, jobs, 0)
	got, _, err := scanJobs(seg)
	if err != nil {
		t.Fatal(err)
	}
	assertJSONLEqual(t, got, jobs)
}

// TestEncodeDeterministic: the same jobs encode to the same bytes, and
// decoded jobs re-encode to the original bytes — the byte-stability the
// storage engine's per-segment CRCs rely on.
func TestEncodeDeterministic(t *testing.T) {
	jobs := genJobs(t, "CC-e", 2, 25*time.Hour)
	seg1 := encode(t, jobs, 64)
	seg2 := encode(t, jobs, 64)
	if !bytes.Equal(seg1, seg2) {
		t.Fatal("two encodings of the same jobs differ")
	}
	decoded, _, err := scanJobs(seg1)
	if err != nil {
		t.Fatal(err)
	}
	seg3 := encode(t, decoded, 64)
	if !bytes.Equal(seg1, seg3) {
		t.Fatal("re-encoding decoded jobs changed the bytes")
	}
}

// TestEmptySegment: zero jobs still form a valid segment (header only)
// that reads back as an empty stream.
func TestEmptySegment(t *testing.T) {
	seg := encode(t, nil, 0)
	got, fs, err := scanJobs(seg)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty segment: %d jobs, err %v", len(got), err)
	}
	if fs.BlocksRead() != 0 {
		t.Fatalf("empty segment read %d blocks", fs.BlocksRead())
	}
}

// TestHeaderValidation: wrong magic, wrong version, and empty input are
// errors, not EOF.
func TestHeaderValidation(t *testing.T) {
	seg := encode(t, genJobs(t, "CC-b", 3, 12*time.Hour), 0)
	for name, mutate := range map[string]func([]byte) []byte{
		"empty":         func(b []byte) []byte { return nil },
		"torn magic":    func(b []byte) []byte { return b[:4] },
		"bad magic":     func(b []byte) []byte { b[0] ^= 0xff; return b },
		"wrong version": func(b []byte) []byte { b[len(Magic)] = 0x7f; return b },
	} {
		b := mutate(append([]byte(nil), seg...))
		if _, _, err := scanJobs(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestTruncationMidBlock: cutting a segment inside a block is an error
// (never a silent short read); cutting exactly at a block boundary is
// indistinguishable from end-of-segment by design — the storage
// engine's file-level size+CRC check owns whole-file torn-tail
// detection.
func TestTruncationMidBlock(t *testing.T) {
	jobs := genJobs(t, "CC-b", 4, 12*time.Hour)
	seg := encode(t, jobs, 50)
	for _, frac := range []float64{0.3, 0.5, 0.9} {
		cut := int(float64(len(seg)) * frac)
		_, _, err := scanJobs(seg[:cut])
		if err == nil {
			t.Errorf("truncation at %d/%d bytes decoded cleanly", cut, len(seg))
		}
	}
}

// TestBitFlipsDetected: flipping any sampled byte of a segment —
// header, frame lengths, checksums, dictionaries, columns — must fail
// decoding with an error, never a panic and never silently different
// jobs. This is the per-block CRC doing its job.
func TestBitFlipsDetected(t *testing.T) {
	jobs := genJobs(t, "CC-b", 5, 8*time.Hour)
	seg := encode(t, jobs, 32)
	for off := 0; off < len(seg); off += 37 {
		b := append([]byte(nil), seg...)
		b[off] ^= 0xff
		if _, _, err := scanJobs(b); err == nil {
			t.Errorf("flip at offset %d decoded without error", off)
		}
	}
}

// TestZoneMapPruning: a time-ranged scan skips blocks outside the
// range without reading them — proven both by the block counters and by
// corrupting a block outside the range: the ranged scan still succeeds
// (the corruption is never even read), while a full scan fails.
func TestZoneMapPruning(t *testing.T) {
	start := time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC)
	var jobs []*trace.Job
	for i := 0; i < 400; i++ {
		jobs = append(jobs, &trace.Job{
			ID:         int64(i),
			Name:       "periodic",
			SubmitTime: start.Add(time.Duration(i) * time.Minute),
		})
	}
	seg := encode(t, jobs, 16) // 25 blocks of 16 minutes each

	from, to := start.Add(2*time.Hour), start.Add(3*time.Hour)
	got, fs, err := scanJobs(seg, WithTimeRange(from, to))
	if err != nil {
		t.Fatal(err)
	}
	if fs.BlocksPruned() == 0 || fs.BlocksRead() == 0 {
		t.Fatalf("pruning did not engage: read %d, pruned %d", fs.BlocksRead(), fs.BlocksPruned())
	}
	if fs.BlocksRead()+fs.BlocksPruned() != 25 {
		t.Fatalf("read %d + pruned %d blocks, want 25 total", fs.BlocksRead(), fs.BlocksPruned())
	}
	// Every job in the range came back (pruning is conservative: it may
	// keep edge blocks, never drop in-range jobs).
	want := 0
	for _, j := range jobs {
		if !j.SubmitTime.Before(from) && !j.SubmitTime.After(to) {
			want++
		}
	}
	in := 0
	for _, j := range got {
		if !j.SubmitTime.Before(from) && !j.SubmitTime.After(to) {
			in++
		}
	}
	if in != want {
		t.Fatalf("ranged scan yielded %d in-range jobs, want %d", in, want)
	}

	// Corrupt the tail of the segment — inside the last block, which
	// covers minutes far outside [from, to].
	seg[len(seg)-3] ^= 0xff
	if _, _, err := scanJobs(seg); err == nil {
		t.Fatal("full scan of corrupted segment decoded without error")
	}
	gotPruned, fs2, err := scanJobs(seg, WithTimeRange(from, to))
	if err != nil {
		t.Fatalf("ranged scan decoded the corrupt pruned block: %v", err)
	}
	if len(gotPruned) != len(got) {
		t.Fatalf("ranged scan over corrupt segment yielded %d jobs, want %d", len(gotPruned), len(got))
	}
	if fs2.BlocksPruned() == 0 {
		t.Fatal("second ranged scan pruned nothing")
	}
}
