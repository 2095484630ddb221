package colseg

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/trace"
)

// The block-parallel scan splits the sequential Reader into its two
// halves. A FrameScanner does the positional work — one goroutine walks
// the segment by offset, validates the header, frames blocks, and
// prunes via zone maps without reading a pruned block's bytes — while
// BlockDecoders do the CPU work: each framed payload is self-contained
// (own CRC, own dictionary, own delta bases), so any number of decoders
// can turn frames into job batches concurrently. The storage layer owns
// the pipeline; this file only provides the two halves.

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
// r. It accepts the same options as NewReader; only WithTimeRange is
// meaningful (the scanner never decodes, so WithVolatileBatch is a
// no-op). It holds no pooled buffer, so there is nothing to close.
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
// stream — the concurrent half of a block-parallel scan; each worker
// owns one. It decodes into a pooled batch reused across Decode calls
// (the Reader's volatile discipline), so the returned jobs are valid
// only until the next Decode or Close. Strings inside them are
// immutable and safe to retain.
type BlockDecoder struct {
	r Reader
}

// NewBlockDecoder returns a decoder stamping meta's zone-independent
// fields into decoded jobs (the metadata itself travels with the
// partials, not the jobs; meta only seeds the reader state).
func NewBlockDecoder(meta trace.Meta) *BlockDecoder {
	d := &BlockDecoder{}
	d.r.meta = meta
	d.r.volatile = true
	return d
}

// Decode verifies payload's CRC and decodes its columns, returning the
// block's jobs in order. payload must be one frame as handed out by
// FrameScanner.Next (CRC word plus body).
func (d *BlockDecoder) Decode(payload []byte) ([]trace.Job, error) {
	if len(payload) < 5 {
		return nil, fmt.Errorf("colseg: block frame of %d bytes is shorter than its checksum", len(payload))
	}
	if err := d.r.decodeBlock(payload); err != nil {
		return nil, err
	}
	return d.r.jobs, nil
}

// Close returns the pooled decode scratch. The decoder uses none of
// Reader's stream state, so there is nothing else to release.
func (d *BlockDecoder) Close() error {
	d.r.release()
	return nil
}

// InWindow reports whether j was submitted in [from, to) — the exact
// filter trace.NewWindowSource applies, for callers filtering a decoded
// batch in place of wrapping a source.
func InWindow(j *trace.Job, from, to time.Time) bool {
	ns := j.SubmitTime.UnixNano()
	return ns >= from.UnixNano() && ns < to.UnixNano()
}
