package colseg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"sync"
	"time"

	"repro/internal/binenc"
	"repro/internal/trace"
	"repro/internal/units"
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

// scratch is the per-block decode state: the job batch and the column
// value arrays. BlockDecoders recycle whole bundles through scratchPool
// across blocks, decoders and goroutines.
type scratch struct {
	jobs   []trace.Job
	secs   []int64
	nanos  []uint64
	uvals  []uint64
	ivals  []int64
	ivals2 []int64
	spans  []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow sizes the job batch and the column arrays for an n-job block.
// Every column loop assigns every field of every job, so a reused batch
// needs no clearing.
func (sc *scratch) grow(n int) {
	if cap(sc.jobs) < n {
		sc.jobs = make([]trace.Job, n)
	}
	if cap(sc.secs) < n {
		sc.secs = make([]int64, n)
		sc.nanos = make([]uint64, n)
		sc.uvals = make([]uint64, n)
		sc.ivals = make([]int64, n)
		sc.ivals2 = make([]int64, n)
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

// decodeBlock verifies payload's checksum and decodes its columns into
// the decoder's reused job batch. The column loops decode varints
// directly from the body with a one-byte fast path instead of going
// through binenc's Reader — this is the hottest loop of every disk
// scan, and the per-value method-call and error-check overhead is what
// the columnar format exists to avoid. Corruption still cannot pass
// silently: the CRC already vouched for the bytes, and the raw loops
// fail (never panic) on any structural mismatch.
func (d *BlockDecoder) decodeBlock(payload []byte) ([]trace.Job, error) {
	want := binary.LittleEndian.Uint32(payload[:4])
	body := payload[4:]
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("colseg: block CRC mismatch (%08x vs %08x)", got, want)
	}
	rd := binenc.NewReader(body)
	// Every job costs at least one byte per column, so Count bounds the
	// batch allocation a corrupt count could demand.
	n := rd.Count(numCols)
	rd.Varint() // minSubmitSec (zone map; not needed to decode)
	rd.Varint() // maxSubmitSec
	dictN := rd.Count(1)
	if rd.Err() != nil {
		return nil, fmt.Errorf("colseg: corrupt block header: %w", rd.Err())
	}
	blob, spans, off, ok := d.readDict(body, len(body)-rd.Remaining(), dictN)
	if !ok {
		return nil, fmt.Errorf("colseg: corrupt block dictionary")
	}

	sc := d.sc
	sc.grow(n)
	jobs := sc.jobs[:n]
	secs, nanos := sc.secs[:n], sc.nanos[:n]
	uvals, ivals, ivals2 := sc.uvals[:n], sc.ivals[:n], sc.ivals2[:n]

	// The column loops below are fused: each pass over the jobs batch
	// fills several fields at once, so the batch — the widest data the
	// decode touches — is streamed through the cache a few times instead
	// of once per column.

	// Pass 1: IDs (delta varints) and names (dictionary references).
	if off, ok = readVarints(ivals, body, off); !ok {
		return nil, fmt.Errorf("colseg: corrupt id column")
	}
	if off, ok = readUvarints(uvals, body, off); !ok {
		return nil, fmt.Errorf("colseg: corrupt name column")
	}
	var id int64
	for i := range jobs {
		id += ivals[i]
		jobs[i].ID = id
		ref := uvals[i]
		if ref == 0 {
			jobs[i].Name = ""
			continue
		}
		if ref > uint64(dictN) {
			return nil, fmt.Errorf("colseg: dictionary reference out of range")
		}
		jobs[i].Name = blob[spans[2*ref-2]:spans[2*ref-1]]
	}

	// Pass 2: submit times from the three time columns (delta seconds,
	// fixed 4-byte nanosecond-of-second, zone offset).
	if off, ok = readVarints(ivals, body, off); !ok {
		return nil, fmt.Errorf("colseg: corrupt submit-seconds column")
	}
	var sec int64
	for i := range secs {
		sec += ivals[i]
		secs[i] = sec
	}
	if len(body)-off < 4*n {
		return nil, fmt.Errorf("colseg: truncated submit-nanos column")
	}
	nsCol := body[off : off+4*n]
	off += 4 * n
	if off, ok = readVarints(ivals, body, off); !ok {
		return nil, fmt.Errorf("colseg: corrupt zone-offset column")
	}
	for i := range jobs {
		ns := binary.LittleEndian.Uint32(nsCol[4*i:])
		if ns >= 1e9 {
			return nil, fmt.Errorf("colseg: submit nanoseconds out of range")
		}
		jobs[i].SubmitTime = d.inZone(time.Unix(secs[i], int64(ns)), int(ivals[i]))
	}

	// Pass 3: the six consecutive fixed 8-byte columns — duration, the
	// three byte counts, and the two task-time floats — read strided
	// from the body in one loop.
	if len(body)-off < 8*6*n {
		return nil, fmt.Errorf("colseg: truncated fixed-width columns")
	}
	wide := body[off : off+8*6*n]
	d1, d2, d3, d4, d5 := 8*n, 16*n, 24*n, 32*n, 40*n
	for i := range jobs {
		o := 8 * i
		jobs[i].Duration = time.Duration(binary.LittleEndian.Uint64(wide[o:]))
		jobs[i].InputBytes = unitsBytes(int64(binary.LittleEndian.Uint64(wide[d1+o:])))
		jobs[i].ShuffleBytes = unitsBytes(int64(binary.LittleEndian.Uint64(wide[d2+o:])))
		jobs[i].OutputBytes = unitsBytes(int64(binary.LittleEndian.Uint64(wide[d3+o:])))
		jobs[i].MapTime = unitsTaskSeconds(math.Float64frombits(binary.LittleEndian.Uint64(wide[d4+o:])))
		jobs[i].ReduceTime = unitsTaskSeconds(math.Float64frombits(binary.LittleEndian.Uint64(wide[d5+o:])))
	}
	off += 8 * 6 * n

	// Pass 4: task counts and the two path reference columns.
	if off, ok = readVarints(ivals, body, off); !ok {
		return nil, fmt.Errorf("colseg: corrupt map-tasks column")
	}
	if off, ok = readVarints(ivals2, body, off); !ok {
		return nil, fmt.Errorf("colseg: corrupt reduce-tasks column")
	}
	if off, ok = readUvarints(uvals, body, off); !ok {
		return nil, fmt.Errorf("colseg: corrupt input-path column")
	}
	if off, ok = readUvarints(nanos, body, off); !ok {
		return nil, fmt.Errorf("colseg: corrupt output-path column")
	}
	for i := range jobs {
		jobs[i].MapTasks = int(ivals[i])
		jobs[i].ReduceTasks = int(ivals2[i])
		in, out := uvals[i], nanos[i]
		if in > uint64(dictN) || out > uint64(dictN) {
			return nil, fmt.Errorf("colseg: dictionary reference out of range")
		}
		if in == 0 {
			jobs[i].InputPath = ""
		} else {
			jobs[i].InputPath = blob[spans[2*in-2]:spans[2*in-1]]
		}
		if out == 0 {
			jobs[i].OutputPath = ""
		} else {
			jobs[i].OutputPath = blob[spans[2*out-2]:spans[2*out-1]]
		}
	}

	if off != len(body) {
		return nil, fmt.Errorf("colseg: %d trailing bytes after block columns", len(body)-off)
	}
	return jobs, nil
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

// unitsBytes and unitsTaskSeconds are conversion shims keeping the
// column loops free of package-qualified casts.
func unitsBytes(v int64) units.Bytes { return units.Bytes(v) }

func unitsTaskSeconds(v float64) units.TaskSeconds { return units.TaskSeconds(v) }
