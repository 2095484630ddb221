package colseg

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/trace"
	"repro/internal/units"
)

// The two halves of every segment read. A FrameScanner does the
// positional work: it walks the committed prefix by offset, validates
// the header, frames blocks, and prunes via zone maps without reading a
// pruned block's bytes. A BlockDecoder does the CPU work: it verifies
// and decodes one framed payload. Each payload is self-contained (own
// CRC, own dictionary, own delta bases), so one scanner's frames can
// decode on any number of goroutines. The storage layer owns the files
// and the pipelines.

// zoneMapWindow bounds a block's zone map: 4 CRC bytes plus the jobs
// count and the two submit-second varints, each at most 10 bytes wide,
// always fit.
const zoneMapWindow = 44

// frameHeaderMax bounds one frame's header read: the frame-length
// varint plus the zone-map window.
const frameHeaderMax = binary.MaxVarintLen64 + zoneMapWindow

// FrameScanner walks the committed prefix [0, size) of a colseg segment
// by offset and frames its blocks without decoding them. Each frame
// costs one bounded header read — the frame-length varint plus the
// zone-map window. With WithTimeRange, a frame whose zone map lies
// wholly outside the range is skipped by advancing the offset: its
// payload is never read, so never CRC-verified. A kept frame is read
// once, straight into the caller's buffer, and the same read takes the
// next frame's header, as the first read takes the segment header with
// the first frame's. Nothing at or past size is read, so bytes a live
// appender writes past the committed size stay invisible, and a frame
// that runs past it fails as truncated. Errors latch: every later Next
// repeats them.
type FrameScanner struct {
	r    io.ReaderAt
	size int64
	off  int64
	err  error

	began          bool
	prune          bool
	fromSec, toSec int64

	// hdr holds header bytes already read; ahead is the part of it
	// that starts at off, empty when the next header is still unread.
	hdr   [maxSegmentHeader + frameHeaderMax]byte
	ahead []byte

	read, pruned int
}

// NewFrameScanner returns a FrameScanner over the first size bytes of
// r — for a stored segment, the committed size its manifest records.
// WithTimeRange makes it prune. It holds no pooled buffer, so there is
// nothing to close.
func NewFrameScanner(r io.ReaderAt, size int64, opts ...Option) *FrameScanner {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return &FrameScanner{r: r, size: max(size, 0), prune: o.prune, fromSec: o.fromSec, toSec: o.toSec}
}

// Next returns the next surviving block frame's payload (CRC word plus
// body, exactly what BlockDecoder.Decode takes), reusing buf's capacity
// when it suffices. io.EOF means a clean end of segment. The returned
// slice is the caller's; the scanner holds no reference to it.
func (s *FrameScanner) Next(buf []byte) ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	if !s.began {
		h := s.hdr[:min(int64(len(s.hdr)), s.size)]
		if err := s.readAt(h, 0); err != nil {
			return nil, s.fail(fmt.Errorf("colseg: reading segment header: %w", err))
		}
		n, err := parseSegmentHeader(h)
		if err != nil {
			return nil, s.fail(err)
		}
		s.began, s.off, s.ahead = true, int64(n), h[n:]
	}
	for s.off < s.size {
		h := s.ahead
		if want := min(frameHeaderMax, s.size-s.off); int64(len(h)) < want {
			h = s.hdr[:want]
			if err := s.readAt(h, s.off); err != nil {
				return nil, s.fail(fmt.Errorf("colseg: reading block frame header: %w", err))
			}
		}
		s.ahead = nil
		frameLen, k := binary.Uvarint(h)
		if err := uvarintErr(k); err != nil {
			return nil, s.fail(fmt.Errorf("colseg: reading block frame length: %w", err))
		}
		if frameLen < 5 {
			return nil, s.fail(fmt.Errorf("colseg: block frame of %d bytes is shorter than its checksum", frameLen))
		}
		if frameLen > uint64(s.size-s.off-int64(k)) {
			return nil, s.fail(fmt.Errorf("colseg: block frame of %d bytes runs past the %d committed bytes: %w", frameLen, s.size, io.ErrUnexpectedEOF))
		}
		at := s.off + int64(k)
		s.off = at + int64(frameLen)
		// The frame fits the committed prefix, so h holds at least the
		// first min(frameLen, zoneMapWindow) bytes of its payload.
		head := h[k:min(uint64(len(h)), uint64(k)+frameLen)]
		if s.prune && zoneMapOutside(head, s.fromSec, s.toSec) {
			s.pruned++
			continue
		}
		n := frameLen + uint64(min(frameHeaderMax, s.size-s.off))
		if uint64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		have := copy(buf, head)
		if err := s.readAt(buf[have:], at+int64(have)); err != nil {
			return nil, s.fail(fmt.Errorf("colseg: reading block: %w", err))
		}
		s.ahead = s.hdr[:copy(s.hdr[:], buf[frameLen:])]
		s.read++
		return buf[:frameLen], nil
	}
	s.err = io.EOF
	return nil, io.EOF
}

// readAt fills p from offset off; a short read is io.ErrUnexpectedEOF.
func (s *FrameScanner) readAt(p []byte, off int64) error {
	n, err := s.r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// fail latches err.
func (s *FrameScanner) fail(err error) error {
	s.err = err
	return err
}

// BlocksRead returns how many frames Next has handed out.
func (s *FrameScanner) BlocksRead() int { return s.read }

// BlocksPruned returns how many frames the zone maps skipped.
func (s *FrameScanner) BlocksPruned() int { return s.pruned }

// BlockDecoder decodes framed block payloads independently of any
// stream — the CPU half of every segment read; each reader or scan
// worker owns one. It owns the decode state: scratch drawn from a
// shared pool on the first decode (the parsed column arrays, the job
// batch Decode reuses and the columns DecodeColumns reuses) and a cache
// of the last fixed zone. What a decode returns is therefore valid only
// until the next decode or Close; strings inside it are immutable and
// safe to retain. A reader that keeps jobs copies them out of the
// batch.
type BlockDecoder struct {
	sc       *scratch
	lastOff  int
	lastZone *time.Location
}

// NewBlockDecoder returns a decoder. It holds nothing pooled until its
// first decode.
func NewBlockDecoder() *BlockDecoder { return &BlockDecoder{} }

// Decode verifies payload's CRC and decodes its columns, returning the
// block's jobs in order. payload must be one frame as handed out by
// FrameScanner.Next (CRC word plus body).
func (d *BlockDecoder) Decode(payload []byte) ([]trace.Job, error) {
	b, err := d.parse(payload)
	if err != nil {
		return nil, err
	}
	sc := d.sc
	n := b.n
	if cap(sc.jobs) < n {
		sc.jobs = make([]trace.Job, n)
	}
	jobs := sc.jobs[:n]
	// One pass fills every field of every job, so the batch — the
	// widest data the decode touches — streams through the cache once.
	// Every column is hoisted into a local of exactly n values, so the
	// loop reloads nothing and its bounds checks fold away.
	ids, names, secs, zones := b.ids[:n], b.names[:n], b.secs[:n], b.zones[:n]
	mapTasks, reduceTasks, inPaths, outPaths := b.mapTasks[:n], b.reduceTasks[:n], b.inPaths[:n], b.outPaths[:n]
	nanos := b.nanos[:4*n]
	dur, in, sh, out, mt, rt := b.wide[:8*n], b.wide[8*n:16*n], b.wide[16*n:24*n], b.wide[24*n:32*n], b.wide[32*n:40*n], b.wide[40*n:48*n]
	var id int64
	for i := range jobs {
		j := &jobs[i]
		id += ids[i]
		j.ID = id
		j.Name = b.str(names[i])
		j.SubmitTime = d.inZone(time.Unix(secs[i], int64(binary.LittleEndian.Uint32(nanos[4*i:]))), int(zones[i]))
		o := 8 * i
		j.Duration = time.Duration(binary.LittleEndian.Uint64(dur[o:]))
		j.InputBytes = units.Bytes(binary.LittleEndian.Uint64(in[o:]))
		j.ShuffleBytes = units.Bytes(binary.LittleEndian.Uint64(sh[o:]))
		j.OutputBytes = units.Bytes(binary.LittleEndian.Uint64(out[o:]))
		j.MapTime = units.TaskSeconds(math.Float64frombits(binary.LittleEndian.Uint64(mt[o:])))
		j.ReduceTime = units.TaskSeconds(math.Float64frombits(binary.LittleEndian.Uint64(rt[o:])))
		j.MapTasks = int(mapTasks[i])
		j.ReduceTasks = int(reduceTasks[i])
		j.InputPath = b.str(inPaths[i])
		j.OutputPath = b.str(outPaths[i])
	}
	return jobs, nil
}

// DecodeColumns verifies and parses payload exactly as Decode does —
// the same checks on every row, so it fails where Decode fails — but
// materializes no job: it returns the block as columns holding only the
// rows a streamed report reads. With window set, a row is kept when it
// was submitted in [from, to), the test trace.Trace.Window applies
// (!SubmitTime.Before(from) && SubmitTime.Before(to)), made on the
// decoded (second, nanosecond) pair; without, every row is. Only kept
// rows' values are gathered. The columns are valid until the next
// decode or Close.
func (d *BlockDecoder) DecodeColumns(payload []byte, window bool, from, to time.Time) (*trace.Columns, error) {
	b, err := d.parse(payload)
	if err != nil {
		return nil, err
	}
	sc := d.sc
	sel := sc.sel[:0]
	if window {
		// time.Time orders by seconds since year 1, which time.Unix
		// computes from Unix seconds by this (wrapping) shift; keyed the
		// same way, the comparison is Before's at every second colseg
		// can hold.
		fk, fns := from.Unix()+unixToInternal, uint32(from.Nanosecond())
		tk, tns := to.Unix()+unixToInternal, uint32(to.Nanosecond())
		for i, sec := range b.secs {
			k, ns := sec+unixToInternal, b.nanosAt(i)
			if (k > fk || k == fk && ns >= fns) && (k < tk || k == tk && ns < tns) {
				sel = append(sel, int32(i))
			}
		}
	} else {
		for i := range b.n {
			sel = append(sel, int32(i))
		}
	}
	sc.sel = sel
	c := &sc.cols
	m := len(sel)
	c.SubmitSec = resize(c.SubmitSec, m)
	c.SubmitNanos = resize(c.SubmitNanos, m)
	c.Duration = resize(c.Duration, m)
	c.InputBytes = resize(c.InputBytes, m)
	c.ShuffleBytes = resize(c.ShuffleBytes, m)
	c.OutputBytes = resize(c.OutputBytes, m)
	c.MapTime = resize(c.MapTime, m)
	c.ReduceTime = resize(c.ReduceTime, m)
	c.Name = resize(c.Name, m)
	n := b.n
	secs, names, nanos := b.secs[:n], b.names[:n], b.nanos[:4*n]
	for k, i := range sel {
		c.SubmitSec[k] = secs[i]
		c.SubmitNanos[k] = binary.LittleEndian.Uint32(nanos[4*i:])
		c.Name[k] = b.str(names[i])
	}
	dur, in, sh, out, mt, rt := b.wide[:8*n], b.wide[8*n:16*n], b.wide[16*n:24*n], b.wide[24*n:32*n], b.wide[32*n:40*n], b.wide[40*n:48*n]
	for k, i := range sel {
		o := 8 * i
		c.Duration[k] = time.Duration(binary.LittleEndian.Uint64(dur[o:]))
		c.InputBytes[k] = units.Bytes(binary.LittleEndian.Uint64(in[o:]))
		c.ShuffleBytes[k] = units.Bytes(binary.LittleEndian.Uint64(sh[o:]))
		c.OutputBytes[k] = units.Bytes(binary.LittleEndian.Uint64(out[o:]))
		c.MapTime[k] = units.TaskSeconds(math.Float64frombits(binary.LittleEndian.Uint64(mt[o:])))
		c.ReduceTime[k] = units.TaskSeconds(math.Float64frombits(binary.LittleEndian.Uint64(rt[o:])))
	}
	return c, nil
}

// unixToInternal is time's offset from Unix seconds to its own seconds
// since January 1 of year 1.
const unixToInternal int64 = (1969*365 + 1969/4 - 1969/100 + 1969/400) * 86400

// resize returns s with length n, reusing its array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Close returns the pooled decode scratch; what a decode handed out
// expires with it. The decoder may decode again after Close.
func (d *BlockDecoder) Close() error {
	if d.sc != nil {
		scratchPool.Put(d.sc)
		d.sc = nil
	}
	return nil
}
