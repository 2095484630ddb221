package colseg

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/binenc"
	"repro/internal/trace"
)

// Writer encodes a stream of job records into colseg blocks. Jobs are
// buffered column-at-a-time and flushed as one framed block when the
// block fills (BlockJobs jobs or the block byte cap); Flush emits the
// final short block. The writer never seeks — output is append-only —
// so it composes with the storage engine's streaming, constant-memory
// ingest path.
type Writer struct {
	w     io.Writer
	err   error
	began bool

	// blockJobs is the jobs-per-block cap: BlockJobs, lowered only by
	// this package's tests to force many small blocks.
	blockJobs int
	blocks    int

	n              int
	prevID         int64
	prevSec        int64
	minSec, maxSec int64
	dict           map[string]uint64
	dictN          int
	dictBuf        []byte
	cols           [numCols][]byte
	frame          []byte
}

// NewWriter returns a Writer emitting to w. The caller owns w's
// buffering and close; Writer issues a few writes per block, so w
// should be buffered.
func NewWriter(w io.Writer) *Writer {
	return &Writer{
		w:         w,
		blockJobs: BlockJobs,
		dict:      make(map[string]uint64),
	}
}

// Write appends one job record to the current block, flushing the
// block when it fills.
func (w *Writer) Write(j *trace.Job) error {
	if w.err != nil {
		return w.err
	}
	if !w.began {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	sec := j.SubmitTime.Unix()
	if w.n == 0 {
		w.minSec, w.maxSec = sec, sec
	} else {
		if sec < w.minSec {
			w.minSec = sec
		}
		if sec > w.maxSec {
			w.maxSec = sec
		}
	}
	_, zoneOff := j.SubmitTime.Zone()

	w.cols[colID] = binenc.AppendVarint(w.cols[colID], j.ID-w.prevID)
	w.prevID = j.ID
	w.cols[colNameRef] = binenc.AppendUvarint(w.cols[colNameRef], w.ref(j.Name))
	w.cols[colSubmitSec] = binenc.AppendVarint(w.cols[colSubmitSec], sec-w.prevSec)
	w.prevSec = sec
	w.cols[colSubmitNanos] = binenc.AppendUint32(w.cols[colSubmitNanos], uint32(j.SubmitTime.Nanosecond()))
	w.cols[colZoneOffset] = binenc.AppendVarint(w.cols[colZoneOffset], int64(zoneOff))
	w.cols[colDuration] = binenc.AppendUint64(w.cols[colDuration], uint64(j.Duration))
	w.cols[colInputBytes] = binenc.AppendUint64(w.cols[colInputBytes], uint64(j.InputBytes))
	w.cols[colShuffleBytes] = binenc.AppendUint64(w.cols[colShuffleBytes], uint64(j.ShuffleBytes))
	w.cols[colOutputBytes] = binenc.AppendUint64(w.cols[colOutputBytes], uint64(j.OutputBytes))
	w.cols[colMapTime] = binenc.AppendFloat64(w.cols[colMapTime], float64(j.MapTime))
	w.cols[colReduceTime] = binenc.AppendFloat64(w.cols[colReduceTime], float64(j.ReduceTime))
	w.cols[colMapTasks] = binenc.AppendVarint(w.cols[colMapTasks], int64(j.MapTasks))
	w.cols[colReduceTasks] = binenc.AppendVarint(w.cols[colReduceTasks], int64(j.ReduceTasks))
	w.cols[colInputPathRef] = binenc.AppendUvarint(w.cols[colInputPathRef], w.ref(j.InputPath))
	w.cols[colOutputPathRef] = binenc.AppendUvarint(w.cols[colOutputPathRef], w.ref(j.OutputPath))

	w.n++
	if w.n >= w.blockJobs || w.blockBytes() >= maxBlockBytes {
		return w.flushBlock()
	}
	return nil
}

// Flush emits the buffered jobs as one (possibly short) block and
// leaves the stream open for more writes; it does not close the
// underlying writer. Blocks are self-contained — each resets the delta
// and dictionary state — so a flushed prefix of the stream is a valid
// colseg segment on its own. The storage writer flushes at every seal
// and at segment rotation: everything up to the manifest's recorded
// size then decodes without the uncommitted tail. Flushing an empty
// buffer writes nothing, but an empty stream still emits the segment
// header, so a zero-job segment is a valid (empty) colseg file.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if !w.began {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	return w.flushBlock()
}

// Blocks returns how many blocks the writer has flushed so far. The
// storage manifest records it per segment, so the compaction policy can
// judge average block fill without opening any segment.
func (w *Writer) Blocks() int { return w.blocks }

// ref interns s in the block dictionary and returns its wire reference:
// 0 for the empty string, index+1 otherwise.
func (w *Writer) ref(s string) uint64 {
	if s == "" {
		return 0
	}
	if idx, ok := w.dict[s]; ok {
		return idx + 1
	}
	idx := uint64(w.dictN)
	w.dict[s] = idx
	w.dictN++
	w.dictBuf = binenc.AppendString(w.dictBuf, s)
	return idx + 1
}

// blockBytes returns the current block's encoded payload size so far.
func (w *Writer) blockBytes() int {
	n := len(w.dictBuf)
	for i := range w.cols {
		n += len(w.cols[i])
	}
	return n
}

// writeHeader emits the segment magic and version once, before the
// first block (or at Flush for an empty segment).
func (w *Writer) writeHeader() error {
	w.began = true
	var hdr [len(Magic) + binary.MaxVarintLen64]byte
	copy(hdr[:], Magic)
	k := len(Magic) + binary.PutUvarint(hdr[len(Magic):], Version)
	if _, err := w.w.Write(hdr[:k]); err != nil {
		w.err = fmt.Errorf("colseg: writing header: %w", err)
		return w.err
	}
	return nil
}

// flushBlock frames and writes the buffered block, then resets the
// per-block state. A zero-job block writes nothing.
func (w *Writer) flushBlock() error {
	if w.n == 0 {
		return nil
	}
	body := w.frame[:0]
	body = binenc.AppendUvarint(body, uint64(w.n))
	body = binenc.AppendVarint(body, w.minSec)
	body = binenc.AppendVarint(body, w.maxSec)
	body = binenc.AppendUvarint(body, uint64(w.dictN))
	body = append(body, w.dictBuf...)
	for i := range w.cols {
		body = append(body, w.cols[i]...)
	}

	var hdr [binary.MaxVarintLen64 + 4]byte
	k := binary.PutUvarint(hdr[:], uint64(4+len(body)))
	binary.LittleEndian.PutUint32(hdr[k:], crc32.Checksum(body, castagnoli))
	if _, err := w.w.Write(hdr[:k+4]); err != nil {
		w.err = fmt.Errorf("colseg: writing block frame: %w", err)
		return w.err
	}
	if _, err := w.w.Write(body); err != nil {
		w.err = fmt.Errorf("colseg: writing block: %w", err)
		return w.err
	}
	w.blocks++

	w.frame = body[:0]
	w.n = 0
	w.prevID = 0
	w.prevSec = 0
	clear(w.dict)
	w.dictN = 0
	w.dictBuf = w.dictBuf[:0]
	for i := range w.cols {
		w.cols[i] = w.cols[i][:0]
	}
	return nil
}
