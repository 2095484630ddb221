package colseg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
	"time"

	"repro/internal/binenc"
	"repro/internal/trace"
)

// Option tunes a FrameScanner.
type Option func(*options)

// options is what the Options set: the time range a FrameScanner
// prunes by.
type options struct {
	prune          bool
	fromSec, toSec int64
}

// WithTimeRange restricts a FrameScanner to blocks that may contain
// jobs submitted in [from, to]: blocks whose zone map lies wholly
// outside the range are skipped without being read, decoded or
// CRC-verified. Pruning is conservative at second granularity — every
// job of a kept block is still yielded, including jobs outside the
// range near its edges; callers filter exactly, the scanner only skips
// I/O-and-decode work.
func WithTimeRange(from, to time.Time) Option {
	return func(o *options) {
		o.prune = true
		o.fromSec = from.Unix()
		o.toSec = to.Unix()
	}
}

// scratch is the per-block decode state: the parsed column arrays and
// the two consumers' outputs, the job batch and the kept-row columns.
// BlockDecoders recycle whole bundles through scratchPool across
// blocks, decoders and goroutines.
type scratch struct {
	ids, secs, zones         []int64
	mapTasks, reduceTasks    []int64
	names, inPaths, outPaths []uint64
	spans                    []int32

	jobs []trace.Job
	sel  []int32
	cols trace.Columns
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow sizes the column arrays for an n-job block. parse assigns every
// value of every array it hands out, so reused arrays need no clearing.
func (sc *scratch) grow(n int) {
	if cap(sc.ids) < n {
		sc.ids = make([]int64, n)
		sc.secs = make([]int64, n)
		sc.zones = make([]int64, n)
		sc.mapTasks = make([]int64, n)
		sc.reduceTasks = make([]int64, n)
		sc.names = make([]uint64, n)
		sc.inPaths = make([]uint64, n)
		sc.outPaths = make([]uint64, n)
	}
}

// maxSegmentHeader bounds the segment header: the magic plus the
// version uvarint.
const maxSegmentHeader = len(Magic) + binary.MaxVarintLen64

// parseSegmentHeader validates the segment magic and version at the
// start of b and returns the header's length. b holds the segment's
// first maxSegmentHeader bytes, or all of them when it is shorter.
func parseSegmentHeader(b []byte) (int, error) {
	if len(b) < len(Magic) {
		return 0, fmt.Errorf("colseg: reading segment header: %w", io.ErrUnexpectedEOF)
	}
	if string(b[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("colseg: bad magic %q", b[:len(Magic)])
	}
	version, n := binary.Uvarint(b[len(Magic):])
	if err := uvarintErr(n); err != nil {
		return 0, fmt.Errorf("colseg: reading segment version: %w", err)
	}
	if version != Version {
		return 0, fmt.Errorf("colseg: unsupported segment version %d", version)
	}
	return len(Magic) + n, nil
}

// uvarintErr is the error binary.Uvarint's length result n reports: a
// varint the input ends inside, or one that overflows 64 bits.
func uvarintErr(n int) error {
	switch {
	case n == 0:
		return io.ErrUnexpectedEOF
	case n < 0:
		return errVarintOverflow
	}
	return nil
}

var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// zoneMapOutside parses a block's zone-map stats from the first bytes
// of its payload (CRC word, jobs count, min and max submit second) and
// reports whether the block lies wholly outside [fromSec, toSec].
// Unparseable stats never prune: the kept block's CRC check or decode
// then surfaces the corruption as an error.
func zoneMapOutside(head []byte, fromSec, toSec int64) bool {
	if len(head) < 4 {
		return false
	}
	rd := binenc.NewReader(head[4:])
	rd.Uvarint() // jobs
	minSec := rd.Varint()
	maxSec := rd.Varint()
	if rd.Err() != nil {
		return false
	}
	return maxSec < fromSec || minSec > toSec
}

// block is one parsed block: every column walked and every structural
// check passed, the values held in the decoder's scratch (or, for the
// fixed-width columns, in the payload itself) for one of the two
// consumers to materialize — Decode's job batch or DecodeColumns's
// kept rows. Both read the same parse, so a block one accepts the other
// accepts too.
type block struct {
	n     int
	blob  string
	spans []int32
	// ids are the ID column's deltas, as stored.
	ids []int64
	// names, inPaths and outPaths are dictionary references, each at
	// most the dictionary's size.
	names, inPaths, outPaths []uint64
	// secs are absolute submit seconds; nanos the 4-byte little-endian
	// nanosecond-of-second column, every value below 1e9.
	secs  []int64
	nanos []byte
	zones []int64
	// wide holds the six fixed 8-byte columns back to back — duration,
	// input, shuffle and output bytes, map and reduce task time — n
	// values each.
	wide                  []byte
	mapTasks, reduceTasks []int64
}

// str resolves a dictionary reference: 0 is the empty string, k is
// entry k-1, a substring of the block's blob.
func (b *block) str(ref uint64) string {
	if ref == 0 {
		return ""
	}
	return b.blob[b.spans[2*ref-2]:b.spans[2*ref-1]]
}

// nanosAt returns row i's nanosecond-of-second.
func (b *block) nanosAt(i int) uint32 {
	return binary.LittleEndian.Uint32(b.nanos[4*i:])
}

// parse verifies payload's checksum and parses every column of the
// block. The column loops decode varints directly from the body with a
// one-byte fast path instead of going through binenc's Reader — this is
// the hottest loop of every disk scan, and the per-value method-call
// and error-check overhead is what the columnar format exists to avoid.
// Corruption still cannot pass silently: the CRC already vouched for
// the bytes, and the raw loops fail (never panic) on any structural
// mismatch — a varint that ends past its column or overflows, a
// dictionary reference past the dictionary, a nanosecond value of a
// second or more, a column that runs short, a trailing byte.
func (d *BlockDecoder) parse(payload []byte) (block, error) {
	if len(payload) < 5 {
		return block{}, fmt.Errorf("colseg: block frame of %d bytes is shorter than its checksum", len(payload))
	}
	if d.sc == nil {
		d.sc = scratchPool.Get().(*scratch)
	}
	want := binary.LittleEndian.Uint32(payload[:4])
	body := payload[4:]
	if got := crc32.Checksum(body, castagnoli); got != want {
		return block{}, fmt.Errorf("colseg: block CRC mismatch (%08x vs %08x)", got, want)
	}
	rd := binenc.NewReader(body)
	// Every job costs at least one byte per column, so Count bounds the
	// array allocation a corrupt count could demand.
	n := rd.Count(numCols)
	rd.Varint() // minSubmitSec (zone map; not needed to decode)
	rd.Varint() // maxSubmitSec
	dictN := rd.Count(1)
	if rd.Err() != nil {
		return block{}, fmt.Errorf("colseg: corrupt block header: %w", rd.Err())
	}
	blob, spans, off, ok := d.readDict(body, len(body)-rd.Remaining(), dictN)
	if !ok {
		return block{}, fmt.Errorf("colseg: corrupt block dictionary")
	}
	sc := d.sc
	sc.grow(n)
	b := block{
		n: n, blob: blob, spans: spans,
		ids: sc.ids[:n], names: sc.names[:n], secs: sc.secs[:n], zones: sc.zones[:n],
		mapTasks: sc.mapTasks[:n], reduceTasks: sc.reduceTasks[:n],
		inPaths: sc.inPaths[:n], outPaths: sc.outPaths[:n],
	}
	if off, ok = readVarints(b.ids, body, off); !ok {
		return block{}, fmt.Errorf("colseg: corrupt id column")
	}
	if off, ok = readUvarints(b.names, body, off); !ok {
		return block{}, fmt.Errorf("colseg: corrupt name column")
	}
	if maxRef(b.names) > uint64(dictN) {
		return block{}, errDictRef
	}

	// Submit times: delta seconds, fixed 4-byte nanosecond-of-second,
	// zone offset.
	if off, ok = readVarints(b.secs, body, off); !ok {
		return block{}, fmt.Errorf("colseg: corrupt submit-seconds column")
	}
	var sec int64
	for i, delta := range b.secs {
		sec += delta
		b.secs[i] = sec
	}
	if len(body)-off < 4*n {
		return block{}, fmt.Errorf("colseg: truncated submit-nanos column")
	}
	b.nanos = body[off : off+4*n]
	off += 4 * n
	if off, ok = readVarints(b.zones, body, off); !ok {
		return block{}, fmt.Errorf("colseg: corrupt zone-offset column")
	}
	for i := 0; i < n; i++ {
		if b.nanosAt(i) >= 1e9 {
			return block{}, fmt.Errorf("colseg: submit nanoseconds out of range")
		}
	}

	// The six consecutive fixed 8-byte columns, read in place.
	if len(body)-off < 8*6*n {
		return block{}, fmt.Errorf("colseg: truncated fixed-width columns")
	}
	b.wide = body[off : off+8*6*n]
	off += 8 * 6 * n

	// Task counts and the two path reference columns.
	if off, ok = readVarints(b.mapTasks, body, off); !ok {
		return block{}, fmt.Errorf("colseg: corrupt map-tasks column")
	}
	if off, ok = readVarints(b.reduceTasks, body, off); !ok {
		return block{}, fmt.Errorf("colseg: corrupt reduce-tasks column")
	}
	if off, ok = readUvarints(b.inPaths, body, off); !ok {
		return block{}, fmt.Errorf("colseg: corrupt input-path column")
	}
	if off, ok = readUvarints(b.outPaths, body, off); !ok {
		return block{}, fmt.Errorf("colseg: corrupt output-path column")
	}
	if max(maxRef(b.inPaths), maxRef(b.outPaths)) > uint64(dictN) {
		return block{}, errDictRef
	}

	if off != len(body) {
		return block{}, fmt.Errorf("colseg: %d trailing bytes after block columns", len(body)-off)
	}
	return b, nil
}

var errDictRef = errors.New("colseg: dictionary reference out of range")

// maxRef returns the largest reference in refs (0 for none).
func maxRef(refs []uint64) uint64 {
	var m uint64
	for _, r := range refs {
		m = max(m, r)
	}
	return m
}

// readDict parses dictN length-prefixed strings starting at off. All
// entries of a block share one string allocation — the blob, a
// substring of the block body — and entry k is the blob slice between
// spans[2k] and spans[2k+1], materialized only when a job references
// it. A block whose jobs carry mostly-unique names or paths therefore
// costs one allocation and no per-entry pointer stores; the span slice
// is decoder scratch, reused across blocks (the strings themselves are
// immutable and safe to retain).
func (d *BlockDecoder) readDict(body []byte, off, dictN int) (string, []int32, int, bool) {
	sc := d.sc
	if cap(sc.spans) < 2*dictN {
		sc.spans = make([]int32, 2*dictN)
	}
	spans := sc.spans[:2*dictN]
	start := off
	for i := 0; i < dictN; i++ {
		var n uint64
		if off < len(body) && body[off] < 0x80 {
			n = uint64(body[off])
			off++
		} else {
			v, sz := binary.Uvarint(body[off:])
			if sz <= 0 {
				return "", nil, 0, false
			}
			n = v
			off += sz
		}
		if n > uint64(len(body)-off) {
			return "", nil, 0, false
		}
		// Blob-relative span; int32 is ample, a block body caps at ~1MiB.
		spans[2*i] = int32(off - start)
		off += int(n)
		spans[2*i+1] = int32(off - start)
	}
	blob := string(body[start:off])
	return blob, spans, off, true
}

// readVarints decodes len(dst) zigzag varints from b starting at off,
// with the continuation loop inlined (no binary.Uvarint call): this and
// readUvarints are the hottest loops of a disk scan. Returns the new
// offset and whether every value decoded. Inputs reach these loops only
// after the block CRC verified, so a malformed varint means scan
// corruption and simply reports false.
func readVarints(dst []int64, b []byte, off int) (int, bool) {
	n := len(b)
	for i := 0; i < len(dst); {
		if n-off >= 8 {
			// Load 8 bytes once and locate the terminator byte (high bit
			// clear) with bit tricks; varints to 8 bytes (56 bits — every
			// delta column in practice) decode without per-byte loads or
			// bounds checks.
			x := binary.LittleEndian.Uint64(b[off:])
			if x&0x8080808080808080 == 0 && len(dst)-i >= 8 {
				// Eight consecutive single-byte varints — the common shape
				// of delta, count, and reference columns — decode from the
				// one load.
				for k := 0; k < 8; k++ {
					v := x >> (8 * k) & 0xff
					dst[i+k] = int64(v>>1) ^ -int64(v&1)
				}
				i += 8
				off += 8
				continue
			}
			if x&0x80 == 0 {
				dst[i] = int64(x&0x7f)>>1 ^ -int64(x&1)
				i++
				off++
				continue
			}
			if x&0x8000 == 0 {
				u := x&0x7f | x>>1&0x3f80
				dst[i] = int64(u>>1) ^ -int64(u&1)
				i++
				off += 2
				continue
			}
			if m := ^x & 0x8080808080808080; m != 0 {
				k := bits.TrailingZeros64(m) >> 3 // terminator byte index; length k+1
				u := compact7(x, k)
				off += k + 1
				dst[i] = int64(u>>1) ^ -int64(u&1)
				i++
				continue
			}
		}
		u, sz := binary.Uvarint(b[off:])
		if sz <= 0 {
			return off, false
		}
		off += sz
		dst[i] = int64(u>>1) ^ -int64(u&1)
		i++
	}
	return off, true
}

// compact7 extracts the value of a varint whose k+1 encoded bytes
// (terminator at byte index k, k ≤ 7) sit in the low bytes of the
// 64-bit load x: mask to the varint's bytes, clear the continuation
// bits, then fold the eight 7-bit groups together in three fixed
// shift-mask steps — no data-dependent loop, so the branch predictor
// sees one pattern regardless of each value's length.
func compact7(x uint64, k int) uint64 {
	x &= uint64(1)<<(8*(k+1)) - 1 // k=7: shift by 64 is 0, so the mask is all ones
	x &= 0x7f7f7f7f7f7f7f7f
	x = x&0x007f007f007f007f | (x&0x7f007f007f007f00)>>1
	x = x&0x00003fff00003fff | (x&0x3fff00003fff0000)>>2
	x = x&0x000000000fffffff | (x&0x0fffffff00000000)>>4
	return x
}

// readUvarints is readVarints without the zigzag step.
func readUvarints(dst []uint64, b []byte, off int) (int, bool) {
	n := len(b)
	for i := 0; i < len(dst); {
		if n-off >= 8 {
			x := binary.LittleEndian.Uint64(b[off:])
			if x&0x8080808080808080 == 0 && len(dst)-i >= 8 {
				for k := 0; k < 8; k++ {
					dst[i+k] = x >> (8 * k) & 0xff
				}
				i += 8
				off += 8
				continue
			}
			if x&0x80 == 0 {
				dst[i] = x & 0x7f
				i++
				off++
				continue
			}
			if x&0x8000 == 0 {
				dst[i] = x&0x7f | x>>1&0x3f80
				i++
				off += 2
				continue
			}
			if m := ^x & 0x8080808080808080; m != 0 {
				k := bits.TrailingZeros64(m) >> 3
				dst[i] = compact7(x, k)
				off += k + 1
				i++
				continue
			}
		}
		u, sz := binary.Uvarint(b[off:])
		if sz <= 0 {
			return off, false
		}
		dst[i] = u
		off += sz
		i++
	}
	return off, true
}

// inZone restores the job's zone representation: offset 0 is UTC (the
// generated traces and every "Z" timestamp), other offsets get a fixed
// zone cached per offset so a block of same-zone jobs allocates one
// Location, not one per job.
func (d *BlockDecoder) inZone(t time.Time, off int) time.Time {
	if off == 0 {
		return t.UTC()
	}
	if d.lastZone == nil || off != d.lastOff {
		d.lastOff = off
		d.lastZone = time.FixedZone("", off)
	}
	return t.In(d.lastZone)
}
