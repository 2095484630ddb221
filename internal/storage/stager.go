package storage

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/colseg"
	"repro/internal/core"
	"repro/internal/trace"
)

// castagnoli is the CRC-32C table every segment and snapshot checksum
// uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// countCRCWriter counts and checksums every byte passing through it —
// the one place segment sizes and CRCs are computed, so the manifest's
// size and CRC always describe the file's bytes exactly.
type countCRCWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (c *countCRCWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += int64(n)
	return n, err
}

// segmentWriter is one open segment file: a colseg writer over a
// buffered, checksummed file, plus the segment's job count and submit
// span. Stager and Appender both write through it.
type segmentWriter struct {
	file string
	f    *os.File
	bw   *bufio.Writer
	cw   *countCRCWriter
	enc  *colseg.Writer
	jobs int
	span submitSpan
}

// createSegment creates (truncating) segment file in dir.
func createSegment(dir, file string) (*segmentWriter, error) {
	f, err := os.OpenFile(filepath.Join(dir, file), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: creating segment: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	cw := &countCRCWriter{w: bw}
	return &segmentWriter{file: file, f: f, bw: bw, cw: cw, enc: colseg.NewWriter(cw)}, nil
}

func (w *segmentWriter) write(j *trace.Job) error {
	if err := w.enc.Write(j); err != nil {
		return err
	}
	w.jobs++
	w.span.observe(j)
	return nil
}

// sync makes every job written so far durable: the codec is closed
// (final) or flushed at a self-contained block boundary, then the
// buffer is flushed and the file fsynced.
func (w *segmentWriter) sync(final bool) error {
	flush := w.enc.Flush
	if final {
		flush = w.enc.Close
	}
	if err := flush(); err != nil {
		return fmt.Errorf("storage: finishing segment: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("storage: flushing segment: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: syncing segment: %w", err)
	}
	return nil
}

// finish closes the codec and the file and returns the segment's info.
func (w *segmentWriter) finish() (SegmentInfo, error) {
	if err := w.sync(true); err != nil {
		w.f.Close()
		return SegmentInfo{}, err
	}
	if err := w.f.Close(); err != nil {
		return SegmentInfo{}, fmt.Errorf("storage: closing segment: %w", err)
	}
	return w.info(), nil
}

// info describes the bytes written so far — after sync, exactly the
// durable prefix.
func (w *segmentWriter) info() SegmentInfo {
	info := SegmentInfo{
		FileInfo: FileInfo{File: w.file, Size: w.cw.n, CRC32C: w.cw.crc},
		Jobs:     w.jobs,
		Codec:    CodecColumnar,
		Blocks:   w.enc.Blocks(),
	}
	if w.span.has {
		info.MinSubmitSec, info.MaxSubmitSec = w.span.min, w.span.max
		info.HasSpan = true
	}
	return info
}

// Stager writes one new generation of a trace: rotating colseg segment
// files, each checksummed as it is written. The write path is
// append-only and constant-memory, so a trace far larger than RAM
// streams straight to disk. Seal finishes the files and the aggregate
// snapshot; Commit (on the Sealed result) atomically installs the
// manifest. Abort removes everything staged.
type Stager struct {
	store *Store
	dir   string
	gen   uint64

	seg      *segmentWriter // nil between segments
	segments []SegmentInfo
	done     bool
}

// submitSpan accumulates a segment's min/max job submit seconds — the
// segment-level zone map recorded in the manifest.
type submitSpan struct {
	has      bool
	min, max int64
}

func (sp *submitSpan) observe(j *trace.Job) {
	sec := j.SubmitTime.Unix()
	if !sp.has {
		sp.has = true
		sp.min, sp.max = sec, sec
		return
	}
	if sec < sp.min {
		sp.min = sec
	}
	if sec > sp.max {
		sp.max = sec
	}
}

// NewStager starts staging a new generation for name, creating the
// trace directory if needed.
func (s *Store) NewStager(name string) (*Stager, error) {
	dir, err := s.traceDir(name)
	if err != nil {
		return nil, err
	}
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating trace dir: %w", err)
	}
	gen, err := s.nextGen(dir)
	if err != nil {
		return nil, err
	}
	return &Stager{store: s, dir: dir, gen: gen}, nil
}

// Write appends one job record to the current segment, rotating when
// the segment reaches the store's job cap.
func (st *Stager) Write(j *trace.Job) error {
	if st.done {
		return fmt.Errorf("storage: write after seal/abort")
	}
	if st.seg == nil {
		seg, err := createSegment(st.dir, segmentFile(st.gen, len(st.segments)))
		if err != nil {
			return err
		}
		st.seg = seg
	}
	if err := st.seg.write(j); err != nil {
		return err
	}
	if st.seg.jobs >= st.store.segJobs {
		return st.closeSegment()
	}
	return nil
}

// closeSegment finishes and records the current segment.
func (st *Stager) closeSegment() error {
	if st.seg == nil {
		return nil
	}
	info, err := st.seg.finish()
	if err != nil {
		return err
	}
	st.segments = append(st.segments, info)
	st.seg = nil
	return nil
}

// Shards returns one Source per staged segment under the given
// metadata, for pre-commit readback: the spill-ingest path re-scans
// what it just wrote to derive the fingerprint (and, when the upload
// header was incomplete, the aggregate) without holding jobs in
// memory. The current segment is closed first.
func (st *Stager) Shards(meta trace.Meta) ([]trace.Source, error) {
	if st.done {
		return nil, fmt.Errorf("storage: shards after seal/abort")
	}
	if err := st.closeSegment(); err != nil {
		return nil, err
	}
	return segmentSources(st.dir, meta, st.segments), nil
}

// Sealed is a staged generation whose files are durable and whose
// manifest is built but not yet committed. Commit is the cheap atomic
// step, so callers can serialize it under their own locks without
// holding them across the streaming writes.
type Sealed struct {
	store *Store
	dir   string
	man   *Manifest
}

// Seal closes the segment files, persists the aggregate snapshot
// (when non-nil), and returns the Sealed generation ready to commit.
// meta must be the final normalized metadata; fp the canonical
// fingerprint; jobs and bytesMoved the Table-1 totals.
func (st *Stager) Seal(meta trace.Meta, fp string, jobs int, bytesMoved int64, partial *core.Partial) (*Sealed, error) {
	if st.done {
		return nil, fmt.Errorf("storage: seal after seal/abort")
	}
	if err := st.closeSegment(); err != nil {
		return nil, err
	}
	st.done = true
	man := &Manifest{
		Format:      manifestFormat,
		Generation:  st.gen,
		Name:        decodeMust(st.dir),
		Fingerprint: fp,
		Meta:        metaToManifest(meta),
		Jobs:        jobs,
		BytesMoved:  bytesMoved,
		Segments:    st.segments,
	}
	if partial != nil {
		snap, err := partial.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("storage: encoding partial snapshot: %w", err)
		}
		name := partialFile(st.gen)
		path := filepath.Join(st.dir, name)
		if err := writeFileSync(path, snap); err != nil {
			return nil, err
		}
		man.Partial = &FileInfo{
			File:   name,
			Size:   int64(len(snap)),
			CRC32C: crc32.Checksum(snap, castagnoli),
		}
	}
	return &Sealed{store: st.store, dir: st.dir, man: man}, nil
}

// decodeMust recovers the trace name from a directory path created by
// traceDir; the encoding round-trips by construction.
func decodeMust(dir string) string {
	name, err := decodeName(filepath.Base(dir))
	if err != nil {
		return filepath.Base(dir)
	}
	return name
}

// Abort removes everything this stager wrote. Safe to call after Seal
// has failed; a no-op after Commit.
func (st *Stager) Abort() {
	if st.seg != nil {
		// The in-progress segment is on disk but not yet recorded in
		// st.segments; unlink it too.
		st.seg.f.Close()
		os.Remove(filepath.Join(st.dir, st.seg.file))
		st.seg = nil
	}
	st.done = true
	for _, seg := range st.segments {
		os.Remove(filepath.Join(st.dir, seg.File))
	}
	os.Remove(filepath.Join(st.dir, partialFile(st.gen)))
	// Remove the directory too if this was the only occupant (a fresh
	// name whose first upload failed); non-empty removal fails silently.
	os.Remove(st.dir)
}

// Commit atomically installs the sealed generation as the trace's
// committed state and garbage-collects files of older generations. It
// is the only step callers need to serialize per name.
func (s *Sealed) Commit() (*Trace, error) {
	if err := s.store.checkOpen(); err != nil {
		return nil, err
	}
	if err := commitManifest(s.dir, s.man); err != nil {
		return nil, err
	}
	s.sweepOldGenerations()
	return &Trace{dir: s.dir, man: s.man}, nil
}

// Abort removes the sealed generation's files instead of committing.
func (s *Sealed) Abort() {
	for _, seg := range s.man.Segments {
		os.Remove(filepath.Join(s.dir, seg.File))
	}
	if s.man.Partial != nil {
		os.Remove(filepath.Join(s.dir, s.man.Partial.File))
	}
	os.Remove(s.dir)
}

// sweepOldGenerations removes files of generations older than the
// committed one. Newer-generation files (a concurrent writer's stage in
// progress) are left untouched; crashes here are cleaned by recovery.
func (s *Sealed) sweepOldGenerations() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	keep := s.man.fileSet()
	for _, e := range entries {
		name := e.Name()
		if name == manifestName || keep[name] {
			continue
		}
		var gen uint64
		if _, err := fmt.Sscanf(name, "g%06d", &gen); err == nil && gen >= s.man.Generation {
			continue // concurrent newer stage; not ours to touch
		}
		os.Remove(filepath.Join(s.dir, name))
	}
}

// fileSet returns the manifest's committed file names.
func (m *Manifest) fileSet() map[string]bool {
	set := make(map[string]bool, len(m.Segments)+1)
	for _, seg := range m.Segments {
		set[seg.File] = true
	}
	if m.Partial != nil {
		set[m.Partial.File] = true
	}
	return set
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: writing %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("storage: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: syncing %s: %w", path, err)
	}
	return f.Close()
}
