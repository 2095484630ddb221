package colseg

import (
	"bufio"
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

// Reader streams every job of one colseg segment in order, implementing
// trace.Source: the whole-segment read compaction, Trace.Each, readback
// and migration use (windowed scans frame blocks with a FrameScanner
// instead, which skips pruned blocks unread). Blocks decode one at a
// time — each CRC-verified before a single column is parsed — into a
// batch the reader hands out job by job; the batch is freshly allocated
// per block, so callers may retain returned pointers (WithVolatileBatch
// opts out for scan loops that don't). Corrupt or truncated input fails
// with an error, never a panic, and a latched error repeats on every
// subsequent Next.
type Reader struct {
	br   *bufio.Reader
	meta trace.Meta
	err  error

	began    bool
	volatile bool

	jobs []trace.Job
	i    int

	payload []byte
	sc      *scratch

	blocksRead int

	lastOff  int
	lastZone *time.Location
}

// Option tunes a Reader or a FrameScanner.
type Option func(*options)

// options is what the Options set: the Reader reads volatile, the
// FrameScanner the time range.
type options struct {
	volatile       bool
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

// WithVolatileBatch makes the reader reuse one decode batch across
// blocks: each job handed out by Next is valid only until the Next call
// that crosses into the following block (or returns EOF or an error).
// Scan loops that fold every job into an aggregate and move on — the
// disk-scan analysis path — opt in to skip a batch allocation (and its
// GC scanning) per block; anything that retains *Job pointers, like
// trace.Collect, must not. Strings are unaffected: a job's name and
// paths stay valid forever either way. Volatile readers draw their
// batch from a shared pool, so a scan over many single-block segments
// recycles one batch across all of them.
func WithVolatileBatch() Option {
	return func(o *options) { o.volatile = true }
}

// scratch is the per-block decode state: the job batch and the column
// value arrays. A plain reader allocates its own (fresh job batches,
// reader-local columns); volatile readers recycle whole bundles
// through scratchPool across blocks, readers, and goroutines.
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

// brPool recycles the Reader's max-block-sized bufio buffers: a
// whole-trace read (compaction, Trace.Each) opens one reader per
// segment, and a fresh 1MiB buffer per open would be its dominant
// allocation. Buffers return to the pool at stream end (EOF, error or
// Close); nothing a decode hands out points into them. Windowed scans
// use none: a FrameScanner reads frames by offset.
var brPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, maxBlockBytes) }}

// grow sizes the column arrays for an n-job block.
func (sc *scratch) grow(n int) {
	if cap(sc.secs) < n {
		sc.secs = make([]int64, n)
		sc.nanos = make([]uint64, n)
		sc.uvals = make([]uint64, n)
		sc.ivals = make([]int64, n)
		sc.ivals2 = make([]int64, n)
	}
}

// ensureScratch lazily attaches decode state: pooled for volatile
// readers, owned otherwise.
func (r *Reader) ensureScratch() *scratch {
	if r.sc == nil {
		if r.volatile {
			r.sc = scratchPool.Get().(*scratch)
		} else {
			r.sc = new(scratch)
		}
	}
	return r.sc
}

// release returns the pooled buffer (and, for volatile readers, the
// decode scratch) once the stream is over. The jobs batch of a volatile
// reader is dropped alongside: handed-out volatile pointers expired
// with the Next call that ended the stream. A non-volatile reader's
// final batch survives — its jobs were freshly allocated and callers
// may hold pointers into it.
func (r *Reader) release() {
	if r.br != nil {
		r.br.Reset(nil)
		brPool.Put(r.br)
		r.br = nil
	}
	if r.volatile && r.sc != nil {
		scratchPool.Put(r.sc)
		r.jobs = nil
	}
	r.sc = nil
}

// NewReader returns a Reader over r carrying the trace metadata meta
// (segments store no metadata; the manifest owns it, exactly as with
// JSONL segments).
func NewReader(rd io.Reader, meta trace.Meta, opts ...Option) *Reader {
	// The buffer is one max-sized block: an ordinary frame is decoded
	// in place from the buffer (Peek) without a payload copy.
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	br := brPool.Get().(*bufio.Reader)
	br.Reset(rd)
	return &Reader{br: br, meta: meta, volatile: o.volatile}
}

// Meta returns the trace metadata.
func (r *Reader) Meta() trace.Meta { return r.meta }

// BlocksRead returns how many blocks have been decoded so far.
func (r *Reader) BlocksRead() int { return r.blocksRead }

// Close releases the reader's pooled buffers without draining the
// stream. A scan abandoned mid-segment — a handler error on a sibling
// shard, a disconnected client — must Close so the max-block bufio
// buffer returns to the pool; a stream read to EOF or error has
// already released and Close is a no-op. The reader is unusable after:
// any subsequent Next reports the latched error.
func (r *Reader) Close() error {
	if r.err == nil {
		r.err = errClosed
		r.release()
	}
	return nil
}

// errClosed is the latched error after an explicit Close.
var errClosed = fmt.Errorf("colseg: reader closed")

// Next returns the next job, or io.EOF at end of segment.
func (r *Reader) Next() (*trace.Job, error) {
	for {
		if r.i < len(r.jobs) {
			j := &r.jobs[r.i]
			r.i++
			return j, nil
		}
		if r.err != nil {
			return nil, r.err
		}
		if err := r.loadBlock(); err != nil {
			r.err = err
			r.release()
			return nil, err
		}
	}
}

// loadBlock reads and decodes the next block, or reports io.EOF at the
// end of the segment.
func (r *Reader) loadBlock() error {
	if !r.began {
		if err := r.readHeader(); err != nil {
			return err
		}
		r.began = true
	}
	frameLen, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("colseg: reading block frame length: %w", err)
	}
	if frameLen < 5 {
		return fmt.Errorf("colseg: block frame of %d bytes is shorter than its checksum", frameLen)
	}
	if frameLen <= uint64(r.br.Size()) {
		// Common case: the frame fits the read buffer, so decode it in
		// place. Nothing survives decodeBlock that points into the
		// peeked bytes — strings are copied out via the dictionary
		// blob — so the frame can be discarded immediately after.
		payload, err := r.br.Peek(int(frameLen))
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("colseg: reading block: %w", err)
		}
		derr := r.decodeBlock(payload)
		if _, err := r.br.Discard(int(frameLen)); derr == nil && err != nil {
			derr = fmt.Errorf("colseg: reading block: %w", err)
		}
		if derr != nil {
			return derr
		}
	} else {
		// A frame larger than the buffer (a block carrying
		// multi-megabyte strings) takes the copying path.
		payload, err := readFull(r.br, frameLen, r.payload)
		if err != nil {
			return fmt.Errorf("colseg: reading block: %w", err)
		}
		r.payload = payload
		if err := r.decodeBlock(payload); err != nil {
			return err
		}
	}
	r.blocksRead++
	return nil
}

// readHeader validates the segment magic and version.
func (r *Reader) readHeader() error {
	b, perr := r.br.Peek(maxSegmentHeader)
	n, err := parseSegmentHeader(b)
	if err != nil {
		if perr != nil && perr != io.EOF {
			return fmt.Errorf("colseg: reading segment header: %w", perr)
		}
		return err
	}
	_, err = r.br.Discard(n)
	return err
}

// maxSegmentHeader bounds the segment header: the magic plus the
// version uvarint.
const maxSegmentHeader = len(Magic) + binary.MaxVarintLen64

// parseSegmentHeader validates the segment magic and version at the
// start of b and returns the header's length — shared by the streaming
// Reader and the FrameScanner. b holds the segment's first
// maxSegmentHeader bytes, or all of them when it is shorter.
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
// a fresh job batch. The column loops decode varints directly from the
// body with a one-byte fast path instead of going through binenc's
// Reader — this is the hottest loop of every disk scan, and the
// per-value method-call and error-check overhead is what the columnar
// format exists to avoid. Corruption still cannot pass silently: the
// CRC already vouched for the bytes, and the raw loops fail (never
// panic) on any structural mismatch, exactly like the Reader would.
func (r *Reader) decodeBlock(payload []byte) error {
	want := binary.LittleEndian.Uint32(payload[:4])
	body := payload[4:]
	if got := crc32.Checksum(body, castagnoli); got != want {
		return fmt.Errorf("colseg: block CRC mismatch (%08x vs %08x)", got, want)
	}
	rd := binenc.NewReader(body)
	// Every job costs at least one byte per column, so Count bounds the
	// batch allocation a corrupt count could demand.
	n := rd.Count(numCols)
	rd.Varint() // minSubmitSec (zone map; not needed to decode)
	rd.Varint() // maxSubmitSec
	dictN := rd.Count(1)
	if rd.Err() != nil {
		return fmt.Errorf("colseg: corrupt block header: %w", rd.Err())
	}
	blob, spans, off, ok := r.readDict(body, len(body)-rd.Remaining(), dictN)
	if !ok {
		return fmt.Errorf("colseg: corrupt block dictionary")
	}

	sc := r.ensureScratch()
	var jobs []trace.Job
	if r.volatile && n <= cap(sc.jobs) {
		// Every column loop assigns every field of every job, so a
		// reused batch needs no clearing.
		jobs = sc.jobs[:n]
	} else {
		jobs = make([]trace.Job, n)
		if r.volatile {
			sc.jobs = jobs
		}
	}
	sc.grow(n)
	secs, nanos := sc.secs[:n], sc.nanos[:n]
	uvals, ivals, ivals2 := sc.uvals[:n], sc.ivals[:n], sc.ivals2[:n]

	// The column loops below are fused: each pass over the jobs batch
	// fills several fields at once, so the batch — the widest data the
	// decode touches — is streamed through the cache a few times instead
	// of once per column.

	// Pass 1: IDs (delta varints) and names (dictionary references).
	if off, ok = readVarints(ivals, body, off); !ok {
		return fmt.Errorf("colseg: corrupt id column")
	}
	if off, ok = readUvarints(uvals, body, off); !ok {
		return fmt.Errorf("colseg: corrupt name column")
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
			return fmt.Errorf("colseg: dictionary reference out of range")
		}
		jobs[i].Name = blob[spans[2*ref-2]:spans[2*ref-1]]
	}

	// Pass 2: submit times from the three time columns (delta seconds,
	// fixed 4-byte nanosecond-of-second, zone offset).
	if off, ok = readVarints(ivals, body, off); !ok {
		return fmt.Errorf("colseg: corrupt submit-seconds column")
	}
	var sec int64
	for i := range secs {
		sec += ivals[i]
		secs[i] = sec
	}
	if len(body)-off < 4*n {
		return fmt.Errorf("colseg: truncated submit-nanos column")
	}
	nsCol := body[off : off+4*n]
	off += 4 * n
	if off, ok = readVarints(ivals, body, off); !ok {
		return fmt.Errorf("colseg: corrupt zone-offset column")
	}
	for i := range jobs {
		ns := binary.LittleEndian.Uint32(nsCol[4*i:])
		if ns >= 1e9 {
			return fmt.Errorf("colseg: submit nanoseconds out of range")
		}
		jobs[i].SubmitTime = r.inZone(time.Unix(secs[i], int64(ns)), int(ivals[i]))
	}

	// Pass 3: the six consecutive fixed 8-byte columns — duration, the
	// three byte counts, and the two task-time floats — read strided
	// from the body in one loop.
	if len(body)-off < 8*6*n {
		return fmt.Errorf("colseg: truncated fixed-width columns")
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
		return fmt.Errorf("colseg: corrupt map-tasks column")
	}
	if off, ok = readVarints(ivals2, body, off); !ok {
		return fmt.Errorf("colseg: corrupt reduce-tasks column")
	}
	if off, ok = readUvarints(uvals, body, off); !ok {
		return fmt.Errorf("colseg: corrupt input-path column")
	}
	if off, ok = readUvarints(nanos, body, off); !ok {
		return fmt.Errorf("colseg: corrupt output-path column")
	}
	for i := range jobs {
		jobs[i].MapTasks = int(ivals[i])
		jobs[i].ReduceTasks = int(ivals2[i])
		in, out := uvals[i], nanos[i]
		if in > uint64(dictN) || out > uint64(dictN) {
			return fmt.Errorf("colseg: dictionary reference out of range")
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
		return fmt.Errorf("colseg: %d trailing bytes after block columns", len(body)-off)
	}
	r.jobs = jobs
	r.i = 0
	return nil
}

// readDict parses dictN length-prefixed strings starting at off. All
// entries of a block share one string allocation — the blob, a
// substring of the block body — and entry k is the blob slice between
// spans[2k] and spans[2k+1], materialized only when a job references
// it. A block whose jobs carry mostly-unique names or paths therefore
// costs one allocation and no per-entry pointer stores; the span slice
// is reader scratch, reused across blocks (the strings themselves are
// immutable and safe to retain).
func (r *Reader) readDict(body []byte, off, dictN int) (string, []int32, int, bool) {
	sc := r.ensureScratch()
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
func (r *Reader) inZone(t time.Time, off int) time.Time {
	if off == 0 {
		return t.UTC()
	}
	if r.lastZone == nil || off != r.lastOff {
		r.lastOff = off
		r.lastZone = time.FixedZone("", off)
	}
	return t.In(r.lastZone)
}

// readFull reads exactly n bytes into buf (reusing its capacity),
// growing in bounded chunks so a corrupt frame length cannot demand an
// absurd allocation before the bytes exist.
func readFull(br *bufio.Reader, n uint64, buf []byte) ([]byte, error) {
	if uint64(cap(buf)) >= n {
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		return buf, nil
	}
	buf = buf[:0]
	const chunk = 1 << 20
	for uint64(len(buf)) < n {
		step := n - uint64(len(buf))
		if step > chunk {
			step = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(br, buf[start:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// unitsBytes and unitsTaskSeconds are conversion shims keeping the
// column loops free of package-qualified casts.
func unitsBytes(v int64) units.Bytes { return units.Bytes(v) }

func unitsTaskSeconds(v float64) units.TaskSeconds { return units.TaskSeconds(v) }
