package storage

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colseg"
	"repro/internal/core"
	"repro/internal/trace"
)

// Trace is an immutable handle to one committed trace generation. Its
// methods read the generation's files; a later re-ingest or delete of
// the same name does not invalidate an in-progress read (segments are
// unlinked, never rewritten, and an open descriptor survives unlink).
type Trace struct {
	dir string
	man *Manifest
}

// Name returns the trace's stored name.
func (t *Trace) Name() string { return t.man.Name }

// Fingerprint returns the committed content fingerprint.
func (t *Trace) Fingerprint() string { return t.man.Fingerprint }

// Meta returns the normalized trace metadata.
func (t *Trace) Meta() trace.Meta { return t.man.Meta.TraceMeta() }

// Jobs returns the committed job count.
func (t *Trace) Jobs() int { return t.man.Jobs }

// BytesMoved returns the committed Table-1 bytes-moved total.
func (t *Trace) BytesMoved() int64 { return t.man.BytesMoved }

// Segments returns the number of segment files.
func (t *Trace) Segments() int { return len(t.man.Segments) }

// SizeBytes returns the committed on-disk size of the job data.
func (t *Trace) SizeBytes() int64 {
	var n int64
	for _, seg := range t.man.Segments {
		n += seg.Size
	}
	return n
}

// ScanStats counts what a windowed disk scan actually touched — the
// proof that zone maps pruned, independent of timing. Block counters
// are harvested from each segment's frame scanner when its frames end
// (EOF, error, or Close), so read them only after the scan completes.
// The counters are atomic: shard sources finish on scatter workers.
type ScanStats struct {
	Segments       int // segments in the committed generation
	SegmentsPruned int // skipped via manifest min/max without opening
	blocksRead     atomic.Int64
	blocksPruned   atomic.Int64
}

// BlocksRead returns how many colseg blocks the scan read and decoded.
func (st *ScanStats) BlocksRead() int64 { return st.blocksRead.Load() }

// BlocksPruned returns how many colseg blocks zone maps skipped, unread,
// inside segments that were opened.
func (st *ScanStats) BlocksPruned() int64 { return st.blocksPruned.Load() }

// WindowShards returns one scan source per kept segment for the jobs
// submitted in [from, to], pruned at two levels: segments whose
// manifest zone map lies wholly outside the window are skipped without
// opening (manifests without zone maps never prune), and colseg blocks
// inside kept segments are skipped unread via their per-block zone
// maps — the same colseg.FrameScanner and BlockDecoder the
// block-parallel scan frames and decodes with. Pruning is conservative
// at second granularity — kept sources may still yield edge jobs
// outside the window, so the caller keeps exactly the jobs with
// !SubmitTime.Before(from) && SubmitTime.Before(to), the test
// trace.Trace.Window applies. The sources are volatile: each decodes into
// one reused batch, so a job is valid only until that source's next
// Next call (strings inside it are safe to retain). The returned stats
// are valid once every source has been drained or closed.
func (t *Trace) WindowShards(from, to time.Time) ([]trace.Source, *ScanStats) {
	stats := &ScanStats{Segments: len(t.man.Segments)}
	fromSec, toSec := from.Unix(), to.Unix()
	prune := []colseg.Option{colseg.WithTimeRange(from, to)}
	var out []trace.Source
	for _, seg := range t.man.Segments {
		if seg.pruneOutside(fromSec, toSec) {
			stats.SegmentsPruned++
			continue
		}
		out = append(out, t.source(seg, prune, stats))
	}
	return out, stats
}

// Each streams every committed job to fn in manifest order — the read
// compaction and append-session replay share. Jobs decode into a reused
// batch, so fn must not retain the job.
func (t *Trace) Each(fn func(*trace.Job) error) error {
	for _, seg := range t.man.Segments {
		if err := t.source(seg, nil, nil).each(fn); err != nil {
			return err
		}
	}
	return nil
}

// Collect materializes the whole trace in memory — the reload path for
// analyses that need random access. Each decoded block is copied out of
// the reused batch in one allocation, so the caller owns the result.
func (t *Trace) Collect() (*trace.Trace, error) {
	tr := trace.New(t.Meta())
	for _, seg := range t.man.Segments {
		src := t.source(seg, nil, nil)
		for {
			batch, err := src.batch()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			jobs := append([]trace.Job(nil), batch...)
			for i := range jobs {
				tr.Add(&jobs[i])
			}
		}
	}
	return tr, nil
}

// LoadPartial reads, verifies, and decodes the persisted aggregate
// snapshot, and returns a partial covering every committed job. A live
// append commits a snapshot only at checkpoints (Appender.Seal), so the
// snapshot may cover a prefix of the jobs; LoadPartial then folds the
// rest — under an eighth of the trace — block by block as columns,
// skipping the segments and blocks the snapshot covers whole (a seal
// ends a block), and freezes the result. It returns (nil, nil) when the
// trace committed without a snapshot, and an error when the snapshot
// fails its CRC or decode, covers more jobs than the manifest, or ends
// inside a block — callers rebuild from the jobs, never fail.
func (t *Trace) LoadPartial() (*core.Partial, error) {
	if t.man.Partial == nil {
		return nil, nil
	}
	path := filepath.Join(t.dir, t.man.Partial.File)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: reading partial snapshot: %w", err)
	}
	if int64(len(b)) != t.man.Partial.Size {
		return nil, fmt.Errorf("storage: partial snapshot is %d bytes, manifest says %d", len(b), t.man.Partial.Size)
	}
	if crc := crc32.Checksum(b, castagnoli); crc != t.man.Partial.CRC32C {
		return nil, fmt.Errorf("storage: partial snapshot CRC mismatch (%08x vs %08x)", crc, t.man.Partial.CRC32C)
	}
	p, err := core.UnmarshalPartial(b)
	if err != nil {
		return nil, err
	}
	switch skip := p.Jobs(); {
	case skip > t.man.Jobs:
		return nil, fmt.Errorf("storage: partial snapshot covers %d jobs, manifest says %d", skip, t.man.Jobs)
	case skip < t.man.Jobs:
		for _, seg := range t.man.Segments {
			if skip >= seg.Jobs {
				skip -= seg.Jobs
				continue
			}
			src := t.source(seg, nil, nil)
			for cols, err := src.columns(); err != io.EOF; cols, err = src.columns() {
				switch {
				case err != nil:
					return nil, fmt.Errorf("storage: replaying past the partial snapshot: %w", err)
				case skip >= cols.Len():
					skip -= cols.Len()
				case skip > 0:
					src.Close()
					return nil, fmt.Errorf("storage: partial snapshot ends inside a block of %s", seg.File)
				default:
					p.ObserveColumns(cols)
				}
			}
		}
		p.Freeze()
	}
	return p, nil
}

// segmentSource is the one reader of a committed colseg segment. A
// colseg.FrameScanner walks the segment's committed prefix — the
// manifest's SegmentInfo.Size, so bytes a live appender wrote past it
// stay invisible — skipping the blocks the window's zone maps rule out
// when prune is set, and a colseg.BlockDecoder CRC-verifies and decodes
// each kept frame into its reused batch. The file opens on the first
// read, and the source finishes — block counters harvested into stats,
// pooled buffers returned, file closed — at io.EOF, on the first error,
// or at Close, which a reader abandoning the segment mid-way must call.
//
// Sequential readers (Each, Collect, the appender's readback,
// WindowShards) take decoded batches, and a job is valid only until the
// next one; LoadPartial's replay decodes columns, and so do the workers
// ParallelScanPartial's IO goroutine hands bare frames to.
type segmentSource struct {
	dir   string
	seg   SegmentInfo
	meta  trace.Meta
	prune []colseg.Option
	stats *ScanStats

	f     *os.File
	fs    *colseg.FrameScanner
	dec   *colseg.BlockDecoder
	frame *[]byte // from framePool, for batch
	jobs  []trace.Job
	done  bool
}

// source returns a reader of seg, one of t's committed segments, that
// prunes by prune (nil reads every block) and harvests its block
// counters into stats (nil keeps none).
func (t *Trace) source(seg SegmentInfo, prune []colseg.Option, stats *ScanStats) *segmentSource {
	return &segmentSource{dir: t.dir, seg: seg, meta: t.Meta(), prune: prune, stats: stats, dec: colseg.NewBlockDecoder()}
}

// Meta returns the full trace's metadata.
func (s *segmentSource) Meta() trace.Meta { return s.meta }

// nextFrame reads the next kept frame's payload into buf, reusing its
// capacity, or reports io.EOF at the end of the committed prefix.
func (s *segmentSource) nextFrame(buf []byte) ([]byte, error) {
	if s.done {
		return nil, io.EOF
	}
	if s.fs == nil {
		f, err := os.Open(filepath.Join(s.dir, s.seg.File))
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("storage: opening segment: %w", err)
		}
		s.f, s.fs = f, colseg.NewFrameScanner(f, s.seg.Size, s.prune...)
	}
	payload, err := s.fs.Next(buf)
	if err != nil {
		return nil, s.fail(err)
	}
	return payload, nil
}

// kept reads the next kept frame into the pooled buffer, or io.EOF.
func (s *segmentSource) kept() ([]byte, error) {
	if s.done {
		return nil, io.EOF
	}
	if s.frame == nil {
		s.frame = framePool.Get().(*[]byte)
	}
	payload, err := s.nextFrame((*s.frame)[:0])
	if err != nil {
		return nil, err
	}
	*s.frame = payload
	return payload, nil
}

// batch decodes the next kept block into the decoder's reused batch.
func (s *segmentSource) batch() ([]trace.Job, error) {
	payload, err := s.kept()
	if err != nil {
		return nil, err
	}
	jobs, err := s.dec.Decode(payload)
	if err != nil {
		return nil, s.fail(err)
	}
	return jobs, nil
}

// columns decodes the next kept block as the columns of all its rows.
func (s *segmentSource) columns() (*trace.Columns, error) {
	payload, err := s.kept()
	if err != nil {
		return nil, err
	}
	cols, err := s.dec.DecodeColumns(payload, false, time.Time{}, time.Time{})
	if err != nil {
		return nil, s.fail(err)
	}
	return cols, nil
}

// each hands every job of the segment to fn, closing the source when fn
// fails.
func (s *segmentSource) each(fn func(*trace.Job) error) error {
	for {
		jobs, err := s.batch()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for i := range jobs {
			if err := fn(&jobs[i]); err != nil {
				s.Close()
				return err
			}
		}
	}
}

// Next yields the next job of a kept block, or io.EOF at segment end.
func (s *segmentSource) Next() (*trace.Job, error) {
	for len(s.jobs) == 0 {
		jobs, err := s.batch()
		if err != nil {
			return nil, err
		}
		s.jobs = jobs
	}
	j := &s.jobs[0]
	s.jobs = s.jobs[1:]
	return j, nil
}

// fail finishes the source on err: io.EOF passes through, anything else
// is named after the segment.
func (s *segmentSource) fail(err error) error {
	s.Close()
	if err == io.EOF {
		return io.EOF
	}
	return fmt.Errorf("storage: reading %s: %w", s.seg.File, err)
}

// Close finishes the source, exactly once: the block counters harvest
// into the scan stats, and the frame buffer, the decode scratch and the
// descriptor are released. A source already drained to EOF (or failed)
// has finished, and Close is then a no-op. Never an error — it exists
// for early-exit paths.
func (s *segmentSource) Close() error {
	if s.done {
		return nil
	}
	s.done = true
	s.jobs = nil
	if s.frame != nil {
		framePool.Put(s.frame)
		s.frame = nil
	}
	s.dec.Close()
	if s.fs != nil {
		if s.stats != nil {
			s.stats.blocksRead.Add(int64(s.fs.BlocksRead()))
			s.stats.blocksPruned.Add(int64(s.fs.BlocksPruned()))
		}
		s.f.Close()
		s.f, s.fs = nil, nil
	}
	return nil
}

// verifyBufPool recycles the read buffer across verifySegment calls:
// recovery of a many-segment (post-append, pre-compaction) directory
// verifies every segment at startup, and one pooled 64 KiB buffer beats
// a fresh allocation per segment.
var verifyBufPool = sync.Pool{
	New: func() any { b := make([]byte, 1<<16); return &b },
}

// verifySegment streams a committed segment against its recorded size
// and CRC. A file *longer* than recorded is a live-append tail past the
// last committed batch: the committed prefix is CRC-verified and the
// tail truncated away, returning how many bytes were dropped. A short
// file or a CRC mismatch is a torn segment and fails.
func verifySegment(dir string, seg SegmentInfo) (trimmed int64, err error) {
	path := filepath.Join(dir, seg.File)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, fmt.Errorf("segment %s: %w", seg.File, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("segment %s: %w", seg.File, err)
	}
	if fi.Size() < seg.Size {
		return 0, fmt.Errorf("segment %s: %d bytes on disk, manifest says %d", seg.File, fi.Size(), seg.Size)
	}
	crc := uint32(0)
	bufp := verifyBufPool.Get().(*[]byte)
	defer verifyBufPool.Put(bufp)
	buf := *bufp
	remaining := seg.Size
	for remaining > 0 {
		step := int64(len(buf))
		if step > remaining {
			step = remaining
		}
		n, err := io.ReadFull(f, buf[:step])
		if err != nil {
			return 0, fmt.Errorf("segment %s: %w", seg.File, err)
		}
		crc = crc32.Update(crc, castagnoli, buf[:n])
		remaining -= int64(n)
	}
	if crc != seg.CRC32C {
		return 0, fmt.Errorf("segment %s: CRC mismatch (%08x vs %08x)", seg.File, crc, seg.CRC32C)
	}
	if tail := fi.Size() - seg.Size; tail > 0 {
		if err := f.Truncate(seg.Size); err != nil {
			return 0, fmt.Errorf("segment %s: truncating uncommitted tail: %w", seg.File, err)
		}
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("segment %s: syncing after truncate: %w", seg.File, err)
		}
		return tail, nil
	}
	return 0, nil
}
