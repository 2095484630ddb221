package colseg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/trace"
)

// countingReaderAt serves data and tallies what is read from it: the
// bytes asked for, and whether any read reached size or beyond.
type countingReaderAt struct {
	data  []byte
	size  int64
	bytes int64
	past  bool
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.bytes += int64(len(p))
	if off+int64(len(p)) > c.size {
		c.past = true
	}
	return bytes.NewReader(c.data).ReadAt(p, off)
}

// scanFrames drains a FrameScanner over the first size bytes of data,
// returning copies of the frames it kept.
func scanFrames(r io.ReaderAt, size int64, opts ...Option) ([][]byte, *FrameScanner, error) {
	fs := NewFrameScanner(r, size, opts...)
	var frames [][]byte
	for {
		f, err := fs.Next(nil)
		if err == io.EOF {
			return frames, fs, nil
		}
		if err != nil {
			return frames, fs, err
		}
		frames = append(frames, f)
	}
}

// scanJobs scans the whole of seg and decodes every kept frame — the
// read path every stored segment takes — returning the scanner for its
// block counters. The jobs are copied out of the decoder's reused batch.
func scanJobs(seg []byte, opts ...Option) ([]*trace.Job, *FrameScanner, error) {
	frames, fs, err := scanFrames(bytes.NewReader(seg), int64(len(seg)), opts...)
	if err != nil {
		return nil, fs, err
	}
	dec := NewBlockDecoder()
	defer dec.Close()
	var jobs []*trace.Job
	for _, f := range frames {
		batch, err := dec.Decode(f)
		if err != nil {
			return jobs, fs, err
		}
		for i := range batch {
			j := batch[i]
			jobs = append(jobs, &j)
		}
	}
	return jobs, fs, nil
}

// refBlock is one frame of the reference framing, with the zone map
// recomputed from its decoded jobs.
type refBlock struct {
	payload        []byte
	minSec, maxSec int64
}

// refFrames frames seg[:size] with a plain sequential parse and decodes
// every frame in full — the reference the scanner's header reads and
// pruning must agree with.
func refFrames(t testing.TB, seg []byte, size int64) []refBlock {
	t.Helper()
	b := seg[:size]
	n, err := parseSegmentHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	b = b[n:]
	dec := NewBlockDecoder()
	defer dec.Close()
	var out []refBlock
	for len(b) > 0 {
		frameLen, k := binary.Uvarint(b)
		if k <= 0 || frameLen > uint64(len(b)-k) {
			t.Fatalf("reference framing: bad frame length at %d", size-int64(len(b)))
		}
		payload := b[k : k+int(frameLen)]
		b = b[k+int(frameLen):]
		jobs, err := dec.Decode(payload)
		if err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		blk := refBlock{payload: payload}
		for i, j := range jobs {
			sec := j.SubmitTime.Unix()
			if i == 0 || sec < blk.minSec {
				blk.minSec = sec
			}
			if i == 0 || sec > blk.maxSec {
				blk.maxSec = sec
			}
		}
		out = append(out, blk)
	}
	return out
}

// refKept is the reference's answer for a window: the payloads of the
// blocks whose recomputed zone map reaches into [from, to], every block
// when window is false.
func refKept(blocks []refBlock, window bool, from, to time.Time) [][]byte {
	var kept [][]byte
	for _, blk := range blocks {
		if window && (blk.maxSec < from.Unix() || blk.minSec > to.Unix()) {
			continue
		}
		kept = append(kept, blk.payload)
	}
	return kept
}

// scanSegment is one segment shape of the scanner table: the file's
// bytes and the committed size a manifest would record for it.
type scanSegment struct {
	name string
	data []byte
	size int64
}

// scanSegments builds the table's segment shapes: a packed multi-block
// segment, a one-block fragment (one live-append batch), and a segment
// whose file holds a second, uncommitted batch of valid frames past its
// committed size.
func scanSegments(t testing.TB) []scanSegment {
	jobs := genJobs(t, "FB-2009", 7, 24*time.Hour)
	packed := encode(t, jobs, 64)
	fragment := encode(t, jobs[:10], 0)

	var buf bytes.Buffer
	w := newWriter(&buf, 64)
	write := func(js []*trace.Job) {
		for _, j := range js {
			if err := w.Write(j); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	write(jobs[:300])
	committed := int64(buf.Len())
	write(jobs[300:600])

	return []scanSegment{
		{"packed", packed, int64(len(packed))},
		{"fragment", fragment, int64(len(fragment))},
		{"uncommitted-tail", buf.Bytes(), committed},
	}
}

// scanWindow is one window row of the scanner table.
type scanWindow struct {
	name     string
	window   bool
	from, to time.Time
}

// scanWindows derives the table's windows from a segment's reference
// blocks: none, exactly one block's zone map, single seconds on block
// edges, and the whole span.
func scanWindows(blocks []refBlock) []scanWindow {
	sec := func(s int64) time.Time { return time.Unix(s, 0) }
	first, mid, last := blocks[0], blocks[len(blocks)/2], blocks[len(blocks)-1]
	return []scanWindow{
		{name: "none"},
		{"one-block", true, sec(mid.minSec), sec(mid.maxSec)},
		{"edge-first-max", true, sec(first.maxSec), sec(first.maxSec)},
		{"edge-last-min", true, sec(last.minSec), sec(last.minSec)},
		{"inside-edges", true, sec(first.maxSec + 1), sec(last.minSec - 1)},
		{"all", true, sec(first.minSec), sec(last.maxSec)},
	}
}

// TestFrameScannerReadsOnlyKeptFrames holds the positional scanner to a
// full-decode reference filtered by zone map, over every window ×
// segment shape: the same frames and block counters, no byte read at or
// past the committed size, and at most the kept payloads plus one
// bounded header read per frame. Its corrupt rows follow.
func TestFrameScannerReadsOnlyKeptFrames(t *testing.T) {
	for _, seg := range scanSegments(t) {
		blocks := refFrames(t, seg.data, seg.size)
		for _, win := range scanWindows(blocks) {
			t.Run(seg.name+"/"+win.name, func(t *testing.T) {
				want := refKept(blocks, win.window, win.from, win.to)
				var opts []Option
				if win.window {
					opts = append(opts, WithTimeRange(win.from, win.to))
				}
				rd := &countingReaderAt{data: seg.data, size: seg.size}
				got, fs, err := scanFrames(rd, seg.size, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("kept %d frames, reference keeps %d", len(got), len(want))
				}
				budget := int64(maxSegmentHeader + len(blocks)*(binary.MaxVarintLen64+zoneMapWindow))
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("frame %d differs from the reference", i)
					}
					budget += int64(len(want[i]))
				}
				if fs.BlocksRead() != len(want) || fs.BlocksPruned() != len(blocks)-len(want) {
					t.Fatalf("counters read %d pruned %d, want %d and %d",
						fs.BlocksRead(), fs.BlocksPruned(), len(want), len(blocks)-len(want))
				}
				if rd.past {
					t.Fatal("a read reached the committed size")
				}
				if rd.bytes > budget {
					t.Fatalf("read %d bytes, budget %d", rd.bytes, budget)
				}
			})
		}
	}
	corruptFrameRows(t)
}

// corruptFrameRows: corrupt and truncated input fails with an error,
// never a panic and never a read at or past the committed size. An
// unparseable zone map is kept, and the CRC check then fails it.
func corruptFrameRows(t *testing.T) {
	seg := encode(t, genJobs(t, "CC-b", 3, 12*time.Hour), 64)
	hdr, err := parseSegmentHeader(seg)
	if err != nil {
		t.Fatal(err)
	}
	frame := func(n uint64, body ...byte) []byte {
		b := binary.AppendUvarint(seg[:hdr:hdr], n)
		return append(b, body...)
	}
	firstLen, _ := binary.Uvarint(seg[hdr:])
	window := WithTimeRange(time.Unix(0, 0), time.Unix(1, 0)) // prunes every parseable block
	for _, tc := range []struct {
		name string
		data []byte
		size int
		opts []Option
		kept bool // the scanner hands the frame out and the decoder fails it
	}{
		{"bad magic", append([]byte("swimcsg0"), seg[len(Magic):]...), len(seg), nil, false},
		{"bad version", append([]byte(Magic+"\x7f"), seg[hdr:]...), len(seg), nil, false},
		{"torn segment header", seg, len(Magic) - 2, nil, false},
		{"frame shorter than checksum", frame(3, 'a', 'b', 'c'), hdr + 4, nil, false},
		{"frame past size", seg, hdr + 2 + int(firstLen)/2, nil, false},
		{"frame past size, pruning", seg, hdr + 2 + int(firstLen)/2, []Option{window}, false},
		{"truncated frame length", frame(1<<10, 0), hdr + 1, nil, false},
		{"overflowing frame length", append(seg[:hdr:hdr], bytes.Repeat([]byte{0xff}, 11)...), hdr + 11, nil, false},
		{"unparseable zone map", frame(6, 0, 0, 0, 0, 0xff, 0xff), hdr + 7, []Option{window}, true},
	} {
		t.Run("corrupt/"+tc.name, func(t *testing.T) {
			rd := &countingReaderAt{data: tc.data, size: int64(tc.size)}
			frames, fs, err := scanFrames(rd, int64(tc.size), tc.opts...)
			if kept := err == nil && fs.BlocksRead() == 1; kept != tc.kept {
				t.Fatalf("scan kept the frame: %v, want %v (err %v)", kept, tc.kept, err)
			}
			if err != nil {
				if _, again := fs.Next(nil); !errors.Is(again, err) {
					t.Fatalf("error did not latch: %v, then %v", err, again)
				}
			} else {
				dec := NewBlockDecoder()
				for _, f := range frames {
					if _, err = dec.Decode(f); err != nil {
						break
					}
				}
				dec.Close()
			}
			if err == nil {
				t.Fatal("scanned and decoded without error")
			}
			if rd.past {
				t.Fatal("a read reached the committed size")
			}
		})
	}
}
