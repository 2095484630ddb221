package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
)

// trickyJobs exercises every encoder edge the hand-rolled codec must
// reproduce byte-for-byte: omitted fields, HTML-escaped and non-ASCII
// names, control characters, invalid UTF-8, float formats across the
// 'f'/'e' switchover, and fractional-second timestamps.
func trickyJobs() []*Job {
	base := func() *Job { return mkJob(1, 0) }
	var jobs []*Job
	add := func(mut func(*Job)) {
		j := base()
		mut(j)
		jobs = append(jobs, j)
	}
	add(func(j *Job) {})
	add(func(j *Job) { j.Name, j.InputPath, j.OutputPath = "", "", "" })
	add(func(j *Job) { j.Name = `quo"te\back` })
	add(func(j *Job) { j.Name = "a<b>&c" })
	add(func(j *Job) { j.Name = "tab\there\nnew\rline" })
	add(func(j *Job) { j.Name = "ctrl\x01\x1fbyte" })
	add(func(j *Job) { j.Name = "bad\xffutf8\xc3" })
	add(func(j *Job) { j.Name = "uniécode 世界" })
	add(func(j *Job) { j.Name = "line sep par" })
	add(func(j *Job) { j.InputPath = "/päth/with spaces/&x" })
	add(func(j *Job) { j.MapTime = 0.1234567890123 })
	add(func(j *Job) { j.MapTime = 1e-7 })   // 'e' format, negative exponent trim
	add(func(j *Job) { j.MapTime = 2.5e21 }) // 'e' format, positive exponent
	add(func(j *Job) { j.MapTime = 1e21 })
	add(func(j *Job) { j.ReduceTime = units.TaskSeconds(math.MaxFloat64) })
	add(func(j *Job) { j.ReduceTime = 1e-9 })
	add(func(j *Job) { j.MapTime = units.TaskSeconds(math.Copysign(0, -1)) }) // -0.0 prints as "-0"
	add(func(j *Job) { j.MapTime = 9.007199254740993e15 })                    // rounds to 2^53, the top of the integral fast path
	add(func(j *Job) { j.MapTime = 9.007199254740994e15 })                    // 2^53+2, above it
	add(func(j *Job) { j.MapTime = 1e15 })
	add(func(j *Job) { j.Duration = -5 * time.Second })
	add(func(j *Job) { j.ID = math.MaxInt64; j.InputBytes = math.MaxInt64 })
	add(func(j *Job) { j.ID = math.MinInt64; j.OutputBytes = units.Bytes(math.MinInt64) })
	add(func(j *Job) { j.SubmitTime = time.Date(2009, 5, 4, 1, 2, 3, 123456789, time.UTC) })
	add(func(j *Job) { j.SubmitTime = time.Date(2009, 5, 4, 1, 2, 3, 120000000, time.UTC) })
	add(func(j *Job) { j.SubmitTime = time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC) })
	add(func(j *Job) {
		j.SubmitTime = time.Date(2009, 5, 4, 1, 2, 3, 0, time.FixedZone("plus7", 7*3600))
	})
	return jobs
}

// TestAppendJobMatchesEncodingJSON pins the hand-rolled encoder to
// encoding/json's output byte for byte, which is what keeps the file
// format stable across the codec swap.
func TestAppendJobMatchesEncodingJSON(t *testing.T) {
	for i, j := range trickyJobs() {
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("job %d: json.Marshal: %v", i, err)
		}
		// json.Encoder (the v1 writer) appends a newline after each value
		// and HTML-escapes by default, exactly like json.Marshal +
		// SetEscapeHTML(true). Reproduce the Encoder path precisely.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(j); err != nil {
			t.Fatalf("job %d: Encode: %v", i, err)
		}
		want = buf.Bytes()
		got, err := appendJob(nil, j)
		if err != nil {
			t.Fatalf("job %d: appendJob: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("job %d: encoding mismatch\n got: %q\nwant: %q", i, got, want)
		}
	}
}

// TestJobLineKeepsCanonicalControlEscapes: the canonical job line writes
// a backspace or form feed as \u0008 or \u000c, the bytes every committed
// trace's fingerprint was hashed with, where encoding/json (since Go
// 1.22) and AppendJSONString, the report encoder's appender, write \b
// and \f. Apart from those escapes the line is encoding/json's, and both
// forms decode to the same job.
func TestJobLineKeepsCanonicalControlEscapes(t *testing.T) {
	j := mkJob(1, 0)
	j.Name, j.InputPath, j.OutputPath = "back\bspace", "form\ffeed", "<\b\f\n>"
	line, err := appendJob(nil, j)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(j); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(enc.Bytes(), []byte(`"back\bspace"`)) {
		t.Fatalf("encoding/json no longer writes \\b: %s", enc.Bytes())
	}
	want := bytes.ReplaceAll(enc.Bytes(), []byte(`\b`), []byte(`\u0008`))
	want = bytes.ReplaceAll(want, []byte(`\f`), []byte(`\u000c`))
	if !bytes.Equal(line, want) {
		t.Errorf("canonical line\n got: %s\nwant: %s", line, want)
	}
	for _, s := range []string{j.Name, j.InputPath, j.OutputPath} {
		if want, _ := json.Marshal(s); !bytes.Equal(AppendJSONString(nil, s), want) {
			t.Errorf("AppendJSONString(%q) = %s, json.Marshal %s", s, AppendJSONString(nil, s), want)
		}
	}
	for _, b := range [][]byte{line, enc.Bytes()} {
		var back Job
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back.Name != j.Name || back.InputPath != j.InputPath || back.OutputPath != j.OutputPath {
			t.Errorf("%s decoded to %q/%q/%q", b, back.Name, back.InputPath, back.OutputPath)
		}
	}
}

// TestAppendJobRejectsUnrepresentable matches encoding/json's refusal to
// encode NaN/Inf task-times and out-of-range years.
func TestAppendJobRejectsUnrepresentable(t *testing.T) {
	j := mkJob(1, 0)
	j.MapTime = units.TaskSeconds(math.NaN())
	if _, err := appendJob(nil, j); err == nil {
		t.Error("NaN map_time should fail to encode")
	}
	j = mkJob(1, 0)
	j.ReduceTime = units.TaskSeconds(math.Inf(1))
	if _, err := appendJob(nil, j); err == nil {
		t.Error("Inf reduce_time should fail to encode")
	}
	j = mkJob(1, 0)
	j.SubmitTime = time.Date(10001, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := appendJob(nil, j); err == nil {
		t.Error("year 10001 should fail to encode")
	}
}

// TestParseJobFastPathRoundTrip checks decode(encode(j)) == j through the
// fast path for every tricky job.
func TestParseJobFastPathRoundTrip(t *testing.T) {
	tr := New(Meta{Name: "tricky", Machines: 3, Start: t0, Length: 2 * time.Hour})
	for i, j := range trickyJobs() {
		j.ID = int64(i + 1)
		tr.Add(j)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// encode∘decode reaches a fixed point after one application (the
	// invalid-UTF-8 name is escaped as � on first encode but decodes
	// to a real U+FFFD rune, which thereafter passes through literally —
	// encoding/json behaves identically).
	var buf2 bytes.Buffer
	if err := WriteJSONL(&buf2, back); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadJSONL(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := WriteJSONL(&buf3, back2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Error("encode(decode(x)) is not byte-stable")
	}
	tracesEqual(t, back, mustReadStd(t, buf.Bytes()))
}

// mustReadStd decodes a JSONL trace purely with encoding/json — the v1
// reference decoder — for cross-checking the fast path.
func mustReadStd(t *testing.T, data []byte) *Trace {
	t.Helper()
	tr, err := readJSONLStd(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestParseJobFallback feeds the decoder valid-but-non-canonical lines
// (unknown fields, whitespace, escapes, reordered keys) and checks they
// load via the encoding/json fallback with correct values — the "v1
// files with extra fields still load" contract.
func TestParseJobFallback(t *testing.T) {
	hdr := `{"format":"swim-trace-v1","name":"x","machines":1,"start_unix":0,"length_ms":3600000}`
	lines := []string{
		// Unknown field from a future schema version.
		`{"id":7,"submit_time":"2011-03-01T00:00:00Z","duration":1000000000,"input_bytes":5,"shuffle_bytes":0,"output_bytes":1,"map_time":2,"reduce_time":0,"map_tasks":1,"reduce_tasks":0,"queue":"default"}`,
		// Whitespace and reordered keys.
		`{ "submit_time": "2011-03-01T00:00:00Z", "id": 7, "input_bytes": 5 }`,
		// Escaped string content.
		`{"id":7,"name":"escaped","submit_time":"2011-03-01T00:00:00Z"}`,
		// Float written in exponent form for an integer field's sibling.
		`{"id":7,"map_time":1.5e2,"submit_time":"2011-03-01T00:00:00Z"}`,
	}
	for i, line := range lines {
		in := hdr + "\n" + line + "\n"
		tr, err := ReadJSONL(strings.NewReader(in))
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if tr.Len() != 1 || tr.Jobs[0].ID != 7 {
			t.Fatalf("line %d: got %d jobs, want 1 with ID 7", i, tr.Len())
		}
	}
	// The escaped name must be unescaped by the fallback.
	tr, err := ReadJSONL(strings.NewReader(hdr + "\n" + lines[2] + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Jobs[0].Name != "escaped" {
		t.Errorf("escaped name = %q, want %q", tr.Jobs[0].Name, "escaped")
	}
	// map_time from the exponent-form line.
	tr, err = ReadJSONL(strings.NewReader(hdr + "\n" + lines[3] + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Jobs[0].MapTime != 150 {
		t.Errorf("map_time = %v, want 150", tr.Jobs[0].MapTime)
	}
}

// TestReadJSONLLongLine is the regression test for the 4 MiB
// bufio.Scanner line cap: a single job whose name is far larger than the
// old limit must round-trip.
func TestReadJSONLLongLine(t *testing.T) {
	tr := New(Meta{Name: "long", Machines: 1, Start: t0, Length: time.Hour})
	j := mkJob(1, 0)
	j.Name = strings.Repeat("n", 6<<20) // 6 MiB, beyond the old 4 MiB cap
	tr.Add(j)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("long line failed to load: %v", err)
	}
	if back.Len() != 1 || len(back.Jobs[0].Name) != 6<<20 {
		t.Fatalf("long name lost: %d jobs, name len %d", back.Len(), len(back.Jobs[0].Name))
	}
	// The old implementation failed here with "bufio.Scanner: token too
	// long"; make sure that failure mode is gone for good.
	if _, err := readJSONLStd(bytes.NewReader(buf.Bytes())); err == nil {
		t.Log("note: reference scanner decoder now handles long lines too")
	}
}

// TestReadJSONLNoTrailingNewline accepts a final unterminated line.
func TestReadJSONLNoTrailingNewline(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	trimmed := bytes.TrimRight(buf.Bytes(), "\n")
	back, err := ReadJSONL(bytes.NewReader(trimmed))
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, tr, back)
}

// TestScanHelpers covers the token scanners' reject paths directly.
func TestScanHelpers(t *testing.T) {
	badInts := []string{"", "-", "01", "1.5", "1e3", "a", "9223372036854775808", "-9223372036854775809", "18446744073709551616", "99999999999999999999999"}
	for _, s := range badInts {
		if v, _, ok := scanInt([]byte(s+","), 0); ok {
			t.Errorf("scanInt(%q) accepted as %d", s, v)
		}
	}
	if v, _, ok := scanInt([]byte("-9223372036854775808}"), 0); !ok || v != math.MinInt64 {
		t.Errorf("scanInt(MinInt64) = %d, %v", v, ok)
	}
	badFloats := []string{"NaN", "Inf", "+1", "0x1p2", "1_000", ".5", "1.", "1e", "1e+", "--1"}
	for _, s := range badFloats {
		if _, _, ok := scanFloat([]byte(s+","), 0); ok {
			t.Errorf("scanFloat(%q) accepted", s)
		}
	}
	goodFloats := map[string]float64{"0": 0, "-0.5": -0.5, "1e3": 1000, "2.5E-2": 0.025, "123.456": 123.456}
	for s, want := range goodFloats {
		v, _, ok := scanFloat([]byte(s+"}"), 0)
		if !ok || v != want {
			t.Errorf("scanFloat(%q) = %v, %v; want %v", s, v, ok, want)
		}
	}
	if _, _, ok := scanString([]byte(`"has\\escape"`), 0); ok {
		t.Error("scanString accepted an escape sequence")
	}
	if _, _, ok := scanString([]byte("\"ctrl\x01\""), 0); ok {
		t.Error("scanString accepted a control byte")
	}
	if _, _, ok := scanString([]byte("\"bad\xff\""), 0); ok {
		t.Error("scanString accepted invalid UTF-8")
	}
	if s, n, ok := scanString([]byte(`"ok"`), 0); !ok || s != "ok" || n != 4 {
		t.Errorf("scanString = %q, %d, %v", s, n, ok)
	}
}

// TestJSONLReaderStreams verifies Source semantics: meta up front, jobs
// in order, io.EOF at the end.
func TestJSONLReaderStreams(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	src, err := NewJSONLReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m := src.Meta(); m.Name != tr.Meta.Name || m.Machines != tr.Meta.Machines {
		t.Fatalf("meta = %+v, want %+v", m, tr.Meta)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, tr, got)
}

// readJSONLStd is the v1 decoder (bufio.Scanner + encoding/json), kept as
// the reference implementation for equivalence tests and the decode
// benchmark baseline.
func readJSONLStd(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: reading header: %w", err)
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	var hdr jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("trace: parsing header: %w", err)
	}
	if hdr.Format != jsonlFormat {
		return nil, fmt.Errorf("trace: unknown format %q", hdr.Format)
	}
	t := New(Meta{
		Name:     hdr.Name,
		Machines: hdr.Machines,
		Start:    time.UnixMilli(hdr.Start).UTC(),
		Length:   time.Duration(hdr.LengthMS) * time.Millisecond,
	})
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var j Job
		if err := json.Unmarshal(sc.Bytes(), &j); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t.Jobs = append(t.Jobs, &j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scanning: %w", err)
	}
	return t, nil
}

// writeJSONLStd is the v1 encoder (json.Encoder per record), kept as the
// encode benchmark baseline.
func writeJSONLStd(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	hdr := jsonlHeader{
		Format:   jsonlFormat,
		Name:     t.Meta.Name,
		Machines: t.Meta.Machines,
		Start:    t.Meta.Start.UnixMilli(),
		LengthMS: t.Meta.Length.Milliseconds(),
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	for _, j := range t.Jobs {
		if err := enc.Encode(j); err != nil {
			return fmt.Errorf("trace: writing job %d: %w", j.ID, err)
		}
	}
	return bw.Flush()
}

// TestWriteJSONLMatchesStd locks the whole-file output of the new writer
// to the v1 writer.
func TestWriteJSONLMatchesStd(t *testing.T) {
	tr := sampleTrace()
	var fast, std bytes.Buffer
	if err := WriteJSONL(&fast, tr); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONLStd(&std, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast.Bytes(), std.Bytes()) {
		t.Error("WriteJSONL output differs from the encoding/json baseline")
	}
}
