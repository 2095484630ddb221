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

// Open returns a Source streaming every job in order across the
// segments — the sequential out-of-core read path. The source owns its
// file descriptors and closes them at io.EOF or on error; abandon it
// only at a stream boundary.
func (t *Trace) Open() (trace.Source, error) {
	return &chainSource{meta: t.Meta(), sources: segmentSources(t.dir, t.Meta(), t.man.Segments)}, nil
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
// outside the window, so the caller filters exactly (e.g.
// trace.NewWindowSource). The sources are volatile: each decodes into
// one reused batch, so a job is valid only until that source's next
// Next call (strings inside it are safe to retain). The returned stats
// are valid once every source has been drained or closed.
func (t *Trace) WindowShards(from, to time.Time) ([]trace.Source, *ScanStats) {
	stats := &ScanStats{Segments: len(t.man.Segments)}
	fromSec, toSec := from.Unix(), to.Unix()
	var out []trace.Source
	for _, seg := range t.man.Segments {
		if seg.pruneOutside(fromSec, toSec) {
			stats.SegmentsPruned++
			continue
		}
		out = append(out, &windowSource{t: t, seg: seg, from: from, to: to, stats: stats})
	}
	return out, stats
}

// scanSegment opens seg for a frame scan of its committed prefix. Every
// committed segment records its size, which Open CRC-verified; bytes a
// live appender wrote past it stay invisible. The caller closes the
// file.
func (t *Trace) scanSegment(seg SegmentInfo, opts ...colseg.Option) (*os.File, *colseg.FrameScanner, error) {
	f, err := os.Open(filepath.Join(t.dir, seg.File))
	if err != nil {
		return nil, nil, fmt.Errorf("storage: opening segment: %w", err)
	}
	return f, colseg.NewFrameScanner(f, seg.Size, opts...), nil
}

// Collect materializes the whole trace in memory — the reload path for
// analyses that need random access. The caller owns the result.
func (t *Trace) Collect() (*trace.Trace, error) {
	src, err := t.Open()
	if err != nil {
		return nil, err
	}
	tr, err := trace.Collect(src)
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// LoadPartial reads, verifies, and decodes the persisted aggregate
// snapshot, and returns a partial covering every committed job. A live
// append commits a snapshot only at checkpoints (Appender.Seal), so the
// snapshot may cover a prefix of the jobs; LoadPartial then observes
// the rest — under an eighth of the trace — from the segments, skipping
// the segments the snapshot covers whole, and freezes the result. It
// returns (nil, nil) when the trace committed without a snapshot, and
// an error when the snapshot fails its CRC or decode, or covers more
// jobs than the manifest — callers treat that as "rebuild from the
// jobs", never as fatal.
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
			err := t.eachInSegment(seg, func(j *trace.Job) error {
				if skip > 0 {
					skip--
				} else {
					p.Observe(j)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("storage: replaying %s past the partial snapshot: %w", seg.File, err)
			}
		}
		p.Freeze()
	}
	return p, nil
}

// segmentSources builds one lazily-opened Source per colseg segment.
func segmentSources(dir string, meta trace.Meta, segs []SegmentInfo) []trace.Source {
	out := make([]trace.Source, len(segs))
	for i, seg := range segs {
		out[i] = &segmentSource{path: filepath.Join(dir, seg.File), meta: meta, size: seg.Size}
	}
	return out
}

// segmentSource streams every job of one colseg segment file. The file
// opens on the first Next and closes at io.EOF or on the first error; a
// consumer abandoning the stream mid-segment must Close it to release
// the descriptor (and the colseg reader's pooled buffers).
type segmentSource struct {
	path string
	meta trace.Meta
	size int64 // committed byte count from the manifest
	f    *os.File
	cr   *colseg.Reader
	done bool
}

// Meta returns the full trace's metadata.
func (s *segmentSource) Meta() trace.Meta { return s.meta }

// Next yields the next job, or io.EOF at segment end.
func (s *segmentSource) Next() (*trace.Job, error) {
	if s.done {
		return nil, io.EOF
	}
	if s.f == nil {
		f, err := os.Open(s.path)
		if err != nil {
			s.done = true
			return nil, fmt.Errorf("storage: opening segment: %w", err)
		}
		s.f = f
		// A live-append trace's open segment may hold bytes past the
		// committed batch boundary (and a concurrent appender keeps
		// growing it); readers see exactly the manifest-recorded prefix.
		// Batch commits flush the codec at a self-contained boundary, so
		// the prefix always decodes cleanly.
		s.cr = colseg.NewReader(io.LimitReader(f, s.size), s.meta)
	}
	j, err := s.cr.Next()
	if err != nil {
		s.finish()
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("storage: reading %s: %w", filepath.Base(s.path), err)
	}
	return j, nil
}

// finish releases the reader's pooled buffers (a no-op once its stream
// has ended) and the descriptor, exactly once per stream.
func (s *segmentSource) finish() {
	s.done = true
	if s.cr != nil {
		s.cr.Close()
		s.f.Close()
		s.cr, s.f = nil, nil
	}
}

// Close abandons the stream. A source already drained to EOF (or
// failed) has released everything; Close is then a no-op. Never an
// error — it exists for early-exit paths.
func (s *segmentSource) Close() error {
	if !s.done {
		s.finish()
	}
	return nil
}

// windowSource streams the kept blocks of one segment for a windowed
// scan: a FrameScanner skips the blocks the window's zone maps rule out
// and reads the rest, and a BlockDecoder decodes each into its reused
// (volatile) batch. The file opens on the first Next and closes at
// io.EOF or on the first error, when the block counters harvest into
// the scan stats; a consumer abandoning the stream mid-segment must
// Close it.
type windowSource struct {
	t        *Trace
	seg      SegmentInfo
	from, to time.Time
	stats    *ScanStats
	f        *os.File
	fs       *colseg.FrameScanner
	dec      *colseg.BlockDecoder
	frame    []byte
	jobs     []trace.Job
	done     bool
}

// Meta returns the full trace's metadata.
func (s *windowSource) Meta() trace.Meta { return s.t.Meta() }

// Next yields the next job of a kept block, or io.EOF at segment end.
func (s *windowSource) Next() (*trace.Job, error) {
	for len(s.jobs) == 0 {
		if s.done {
			return nil, io.EOF
		}
		if s.fs == nil {
			f, fs, err := s.t.scanSegment(s.seg, colseg.WithTimeRange(s.from, s.to))
			if err != nil {
				s.done = true
				return nil, err
			}
			s.f, s.fs, s.dec = f, fs, colseg.NewBlockDecoder(s.t.Meta())
		}
		frame, err := s.fs.Next(s.frame[:0])
		if err == nil {
			s.frame = frame
			s.jobs, err = s.dec.Decode(frame)
		}
		if err != nil {
			s.finish()
			if err == io.EOF {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("storage: reading %s: %w", s.seg.File, err)
		}
	}
	j := &s.jobs[0]
	s.jobs = s.jobs[1:]
	return j, nil
}

// finish harvests the block counters into the scan stats and releases
// the decoder and the descriptor, exactly once per stream.
func (s *windowSource) finish() {
	s.done = true
	s.jobs = nil
	if s.fs != nil {
		s.stats.blocksRead.Add(int64(s.fs.BlocksRead()))
		s.stats.blocksPruned.Add(int64(s.fs.BlocksPruned()))
		s.dec.Close()
		s.f.Close()
		s.fs, s.dec, s.f = nil, nil, nil
	}
}

// Close abandons the stream. A source already drained to EOF (or
// failed) has released everything; Close is then a no-op. Never an
// error — it exists for early-exit paths.
func (s *windowSource) Close() error {
	if !s.done {
		s.finish()
	}
	return nil
}

// chainSource concatenates segment sources into one ordered stream.
// It carries the manifest metadata itself so a committed trace with
// zero segments (e.g. a sealed-empty generation) still reports its
// identity instead of a zero Meta.
type chainSource struct {
	meta    trace.Meta
	sources []trace.Source
	i       int
}

// Meta returns the trace metadata.
func (c *chainSource) Meta() trace.Meta { return c.meta }

// Next yields the next job across segment boundaries.
func (c *chainSource) Next() (*trace.Job, error) {
	for c.i < len(c.sources) {
		j, err := c.sources[c.i].Next()
		if err == io.EOF {
			c.i++
			continue
		}
		return j, err
	}
	return nil, io.EOF
}

// Close abandons the chain, closing the in-progress segment and every
// unread one after it.
func (c *chainSource) Close() error {
	for ; c.i < len(c.sources); c.i++ {
		if cl, ok := c.sources[c.i].(io.Closer); ok {
			cl.Close()
		}
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
