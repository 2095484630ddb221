package colseg

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/units"
)

// FuzzColumnarRoundTrip drives the codec from both ends. The input is
// interpreted two ways:
//
//  1. As canonical JSONL job lines (the interchange format): every job
//     that parses is pushed through encode→decode, and the decoded jobs
//     must re-serialize to canonical JSONL byte-identical to the
//     originals — the representation-independence contract trace
//     fingerprints rest on. The jobs are then re-encoded and must
//     reproduce the first segment byte-for-byte (encode is a pure
//     function of the job stream).
//
//  2. As a raw colseg segment: arbitrary — truncated, bit-flipped,
//     adversarial — bytes framed by a FrameScanner over their whole
//     length and decoded by a BlockDecoder, the read path of every
//     stored segment, must produce jobs or an error, never a panic and
//     never an unbounded allocation.
func FuzzColumnarRoundTrip(f *testing.F) {
	var seedJobs bytes.Buffer
	for _, j := range []*trace.Job{
		{ID: 1, Name: "ingest", SubmitTime: time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC)},
		{ID: 2, Name: "ingest", SubmitTime: time.Date(2010, 5, 1, 0, 0, 1, 999999999, time.UTC),
			InputBytes: 1 << 40, MapTime: 0.25, MapTasks: 12, InputPath: "/p", OutputPath: "/p"},
		{ID: 3, SubmitTime: time.Date(2010, 5, 1, 1, 0, 0, 0, time.FixedZone("", 3600)), ReduceTime: 1e300},
	} {
		b, err := jobLine(j)
		if err != nil {
			f.Fatal(err)
		}
		seedJobs.Write(b)
	}
	f.Add(seedJobs.Bytes(), uint8(4))
	f.Add(encodeFuzz(f, seedJobs.Bytes()), uint8(1))
	f.Add([]byte(Magic), uint8(2))
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, blockHint uint8) {
		blockJobs := int(blockHint)%64 + 1

		// Leg 1: canonical JSONL in, canonical JSONL out.
		jobs := parseJobs(data)
		if len(jobs) > 0 {
			var seg bytes.Buffer
			w := newWriter(&seg, blockJobs)
			for _, j := range jobs {
				if err := w.Write(j); err != nil {
					t.Fatalf("encoding parsed job: %v", err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			decoded, _, err := scanJobs(seg.Bytes())
			if err != nil {
				t.Fatalf("decoding our own encoding: %v", err)
			}
			if len(decoded) != len(jobs) {
				t.Fatalf("decoded %d jobs, encoded %d", len(decoded), len(jobs))
			}
			for i := range jobs {
				want, err := jobLine(jobs[i])
				if err != nil {
					continue // job has no canonical form (e.g. year 10000 via fallback parse)
				}
				got, err := jobLine(decoded[i])
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("job %d canonical JSONL drifted (%v):\n got %s\nwant %s", i, err, got, want)
				}
			}
			var seg2 bytes.Buffer
			w2 := newWriter(&seg2, blockJobs)
			for _, j := range decoded {
				if err := w2.Write(j); err != nil {
					t.Fatalf("re-encoding decoded job: %v", err)
				}
			}
			if err := w2.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seg.Bytes(), seg2.Bytes()) {
				t.Fatal("re-encoding decoded jobs changed the segment bytes")
			}
		}

		// Leg 2: arbitrary bytes through the scanner and the decoder —
		// no panics, errors OK.
		fs := NewFrameScanner(bytes.NewReader(data), int64(len(data)))
		dec := NewBlockDecoder()
		defer dec.Close()
		for n := 0; ; {
			frame, err := fs.Next(nil)
			if err != nil {
				break
			}
			jobs, err := dec.Decode(frame)
			if err != nil {
				break
			}
			if n += len(jobs); n > 1<<20 {
				t.Fatal("decoded over a million jobs from fuzz input")
			}
		}
	})
}

// FuzzFrameScanner holds the positional scanner to its bounds, on two
// legs:
//
//  1. Arbitrary bytes, a committed size anywhere up to their length,
//     and any window: scanning, and decoding what it keeps, must end in
//     frames or an error — never a panic, and never a read at or past
//     the size.
//
//  2. The input's canonical JSONL jobs, encoded as a segment: the
//     scanner must keep exactly the frames a full-decode reference,
//     filtered by the zone maps recomputed from its jobs, keeps.
func FuzzFrameScanner(f *testing.F) {
	may1 := time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC)
	var jobs []byte
	for i := 0; i < 6; i++ {
		line, err := jobLine(&trace.Job{ID: int64(i), Name: "hourly", SubmitTime: may1.Add(time.Duration(i) * time.Hour)})
		if err != nil {
			f.Fatal(err)
		}
		jobs = append(jobs, line...)
	}
	if len(parseJobs(jobs)) != 6 {
		f.Fatal("seed jobs do not parse")
	}
	f.Add(jobs, uint32(0), uint8(1), may1.Unix()+3600, int64(60))
	f.Add(encodeFuzz(f, jobs), uint32(0), uint8(1), may1.Unix(), int64(3600))
	f.Add(encodeFuzz(f, jobs), uint32(7), uint8(2), may1.Unix()+7200, int64(0))
	f.Add([]byte(Magic), uint32(0), uint8(0), int64(0), int64(-1))
	f.Add([]byte{}, uint32(0), uint8(0), int64(0), int64(0))

	f.Fuzz(func(t *testing.T, data []byte, cut uint32, blockHint uint8, fromSec, spanSec int64) {
		from, to := time.Unix(fromSec, 0), time.Unix(fromSec+spanSec, 0)

		// Leg 1: arbitrary bytes under any committed size.
		size := int64(len(data) - int(cut%uint32(len(data)+1)))
		rd := &countingReaderAt{data: data, size: size}
		frames, _, err := scanFrames(rd, size, WithTimeRange(from, to))
		if err == nil {
			dec := NewBlockDecoder()
			for _, fr := range frames {
				if _, err := dec.Decode(fr); err != nil {
					break
				}
			}
			dec.Close()
		}
		if rd.past {
			t.Fatalf("a read reached the committed size %d", size)
		}

		// Leg 2: an encoded segment keeps the reference's frames.
		parsed := parseJobs(data)
		if len(parsed) == 0 {
			return
		}
		seg := encode(t, parsed, int(blockHint)%8+1)
		want := refKept(refFrames(t, seg, int64(len(seg))), true, from, to)
		got, _, err := scanFrames(bytes.NewReader(seg), int64(len(seg)), WithTimeRange(from, to))
		if err != nil {
			t.Fatalf("scanning our own encoding: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("kept %d frames, reference keeps %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs from the reference", i)
			}
		}
	})
}

// fuzzHeader is the trace header parseJobs puts before the fuzz bytes,
// so they read as a JSONL upload's body lines.
const fuzzHeader = `{"format":"swim-trace-v1"}` + "\n"

// parseJobs decodes data as canonical JSONL body lines, stopping at the
// first malformed line, and bounds the job count to keep iterations
// fast.
func parseJobs(data []byte) []*trace.Job {
	r, err := trace.NewJSONLReader(io.MultiReader(strings.NewReader(fuzzHeader), bytes.NewReader(data)))
	if err != nil {
		panic(err)
	}
	var jobs []*trace.Job
	for len(jobs) < 4096 {
		j, err := r.Next()
		if err != nil {
			break
		}
		// Only keep jobs with a canonical form: encode must be able to
		// re-serialize them (the fallback JSON parser can construct e.g.
		// out-of-range years that the JSONL writer refuses).
		if _, err := jobLine(j); err != nil {
			break
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// encodeFuzz builds a colseg segment from JSONL body bytes, for seeding
// the raw-decode leg with well-formed segments.
func encodeFuzz(f *testing.F, jsonl []byte) []byte {
	f.Helper()
	jobs := parseJobs(jsonl)
	var seg bytes.Buffer
	w := newWriter(&seg, 2)
	for _, j := range jobs {
		if err := w.Write(j); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	return seg.Bytes()
}

// FuzzDecodeColumns holds the column decode to the job decode: both
// read one parse, so on any payload they must agree on error versus
// success (with the same error), and on success the columns must hold
// exactly the jobs Decode yields that the window test keeps —
// trace.Trace.Window's !SubmitTime.Before(from) &&
// SubmitTime.Before(to) — field for field, in order. The payloads are
// the input's canonical JSONL jobs encoded as a segment, the input as a
// raw segment, and the input as a block body under a valid CRC (so the
// structural checks past the checksum see arbitrary bytes); windows
// are arbitrary (second, nanosecond) bounds.
func FuzzDecodeColumns(f *testing.F) {
	may1 := time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC)
	var jobs []byte
	for i := 0; i < 6; i++ {
		line, err := jobLine(&trace.Job{ID: int64(i), Name: "hourly", SubmitTime: may1.Add(time.Duration(i)*time.Hour + time.Duration(i)*time.Millisecond),
			Duration: time.Minute, InputBytes: units.Bytes(i << 20), MapTime: 1.5, InputPath: "/in"})
		if err != nil {
			f.Fatal(err)
		}
		jobs = append(jobs, line...)
	}
	f.Add(jobs, uint8(2), may1.Unix()+3600, uint32(1), int64(7200), uint32(5e8))
	f.Add(encodeFuzz(f, jobs), uint8(1), may1.Unix(), uint32(0), int64(3600), uint32(0))
	f.Add([]byte{3, 0, 0, 0, 1, 'x', 0, 1, 2}, uint8(0), int64(-1<<62), uint32(0), int64(1<<62), uint32(0))
	f.Add([]byte{}, uint8(0), int64(0), uint32(0), int64(0), uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, blockHint uint8, fromSec int64, fromNs uint32, spanSec int64, spanNs uint32) {
		from := time.Unix(fromSec, int64(fromNs%1e9))
		to := time.Unix(fromSec+spanSec, int64(spanNs%1e9))
		var payloads [][]byte
		if parsed := parseJobs(data); len(parsed) > 0 {
			seg := encode(t, parsed, int(blockHint)%8+1)
			frames, _, err := scanFrames(bytes.NewReader(seg), int64(len(seg)))
			if err != nil {
				t.Fatalf("scanning our own encoding: %v", err)
			}
			payloads = append(payloads, frames...)
		}
		frames, _, _ := scanFrames(bytes.NewReader(data), int64(len(data)))
		payloads = append(payloads, frames...)
		payloads = append(payloads, binary.LittleEndian.AppendUint32(nil, crc32.Checksum(data, castagnoli)))
		payloads[len(payloads)-1] = append(payloads[len(payloads)-1], data...)

		jobDec, colDec := NewBlockDecoder(), NewBlockDecoder()
		defer jobDec.Close()
		defer colDec.Close()
		for _, payload := range payloads {
			batch, jerr := jobDec.Decode(payload)
			for _, window := range []bool{false, true} {
				cols, cerr := colDec.DecodeColumns(payload, window, from, to)
				if (jerr == nil) != (cerr == nil) || jerr != nil && jerr.Error() != cerr.Error() {
					t.Fatalf("Decode: %v; DecodeColumns: %v", jerr, cerr)
				}
				if jerr != nil {
					continue
				}
				checkColumns(t, cols, batch, window, from, to)
			}
		}
	})
}

// checkColumns fails unless cols holds exactly the jobs of batch the
// window test keeps (every job without a window).
func checkColumns(t *testing.T, cols *trace.Columns, batch []trace.Job, window bool, from, to time.Time) {
	t.Helper()
	n := cols.Len()
	for _, l := range []int{len(cols.SubmitNanos), len(cols.Duration), len(cols.InputBytes), len(cols.ShuffleBytes),
		len(cols.OutputBytes), len(cols.MapTime), len(cols.ReduceTime), len(cols.Name)} {
		if l != n {
			t.Fatalf("columns of %d and %d rows", n, l)
		}
	}
	k := 0
	for i := range batch {
		j := &batch[i]
		if window && (j.SubmitTime.Before(from) || !j.SubmitTime.Before(to)) {
			continue
		}
		if k >= n {
			t.Fatalf("%d rows kept, the window keeps more", n)
		}
		if cols.SubmitSec[k] != j.SubmitTime.Unix() || int(cols.SubmitNanos[k]) != j.SubmitTime.Nanosecond() ||
			cols.Duration[k] != j.Duration || cols.InputBytes[k] != j.InputBytes ||
			cols.ShuffleBytes[k] != j.ShuffleBytes || cols.OutputBytes[k] != j.OutputBytes ||
			math.Float64bits(float64(cols.MapTime[k])) != math.Float64bits(float64(j.MapTime)) ||
			math.Float64bits(float64(cols.ReduceTime[k])) != math.Float64bits(float64(j.ReduceTime)) ||
			cols.Name[k] != j.Name {
			t.Fatalf("row %d differs from job %d (%+v)", k, i, *j)
		}
		k++
	}
	if k != n {
		t.Fatalf("%d rows kept, the window keeps %d", n, k)
	}
}
