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

// Appender is the store's one writer: uploads, spills, compactions,
// legacy migrations and live appends all write their generations
// through it. Create starts a replacement generation; OpenAppend
// continues the committed one. Append streams jobs into rotating colseg
// segment files, each checksummed as it is written, so a trace far
// larger than RAM goes straight to disk in constant memory. Seal
// flushes the open segment's codec at a block boundary, fsyncs it, and
// builds a manifest whose SegmentInfo records the file's committed
// prefix (size, CRC, job count); Commit installs that manifest
// atomically. The appender stays open after a commit, so a live trace
// seals and commits once per batch while its open segment keeps
// growing; recovery verifies the committed prefix and truncates any
// uncommitted tail, so a crash mid-batch loses exactly the jobs past
// the last committed batch boundary and nothing else. Close ends the
// writer.
//
// Segments rotate at the store's job cap, so a live-appended trace is
// indistinguishable on disk from an uploaded one (same file names, same
// codec, same manifest schema). Writers of one name may overlap: each
// holds its generation from Create or OpenAppend until Close, no commit
// sweeps a held generation's files, and the last commit wins.
type Appender struct {
	store *Store
	dir   string
	name  string
	gen   uint64
	meta  trace.Meta
	// fresh marks a generation Create started and no Commit installed:
	// Close removes all of its files.
	fresh bool

	jobs       int
	bytesMoved int64

	closed []SegmentInfo // fully rotated segments

	// seg is the open segment (nil between rotations). Its running size
	// and CRC are exactly the committed-prefix stats at each Seal: every
	// byte the codec emitted so far passed through it.
	seg    *segmentWriter
	segIdx int

	sealSeq int
	// checkpoint is the committed partial snapshot the next manifest
	// names unless Seal writes a new one; checkpointJobs is the job count
	// it covers, or -1 until this appender commits one of its own.
	checkpoint     *FileInfo
	checkpointJobs int
	sealedOpen     bool // open segment appears in the last sealed manifest
	done           bool
}

// checkpointFraction sets how often an appender's Seal writes a partial
// snapshot: once the jobs appended since the committed checkpoint reach
// 1/checkpointFraction of the trace. Any other seal's manifest keeps
// naming the committed checkpoint, and LoadPartial observes the jobs
// past it from the segments, so a restart replays under an eighth of
// the trace. A checkpoint then covers at least 8/9 of the jobs, and the
// snapshot bytes written per appended job amortize to about 9 × 24 B
// instead of 24 B × the whole trace per batch.
const checkpointFraction = 8

// Create starts a new generation of name with meta as its metadata,
// creating the trace directory if needed. Its first Commit replaces
// whatever generation the name had committed; closing it uncommitted
// removes every file it wrote.
func (s *Store) Create(name string, meta trace.Meta) (*Appender, error) {
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
	return &Appender{store: s, dir: dir, name: name, gen: gen, meta: meta, fresh: true, checkpointJobs: -1}, nil
}

// OpenAppend opens name for live batched appends. A name with no
// committed manifest is Created; an existing trace is continued — its
// committed generation keeps its segment files and new segments are
// appended after them — provided meta matches the committed metadata
// exactly (the fingerprint and the hourly partial bins both hash the
// header first, so appended jobs must agree on it). It returns the
// appender plus the committed state being continued (nil for a fresh
// name).
func (s *Store) OpenAppend(name string, meta trace.Meta) (*Appender, *Trace, error) {
	dir, err := s.traceDir(name)
	if err != nil {
		return nil, nil, err
	}
	if err := s.checkOpen(); err != nil {
		return nil, nil, err
	}
	// The generation is read and held in one step against commits, so
	// no commit's sweep removes its files in between.
	s.commitMu.Lock()
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err == nil {
		if got := man.Meta.TraceMeta(); !got.Start.Equal(meta.Start) || got.Length != meta.Length ||
			got.Machines != meta.Machines || got.Name != meta.Name {
			err = fmt.Errorf("append metadata %+v does not match committed %+v", meta, got)
		} else {
			s.holdWriter(dir, man.Generation, 1)
		}
	}
	s.commitMu.Unlock()
	if os.IsNotExist(err) {
		a, err := s.Create(name, meta)
		return a, nil, err
	}
	if err != nil {
		return nil, nil, fmt.Errorf("storage: opening %q for append: %w", name, err)
	}
	a := &Appender{store: s, dir: dir, name: name, gen: man.Generation, meta: meta, checkpointJobs: -1}
	a.jobs = man.Jobs
	a.bytesMoved = man.BytesMoved
	a.closed = append(a.closed, man.Segments...)
	a.segIdx = len(man.Segments)
	if man.Partial != nil {
		a.checkpoint = man.Partial
		// Resume the seal sequence past the committed snapshot's so the
		// next Seal never rewrites it in place. A snapshot named before
		// sequence numbers (g%06d.partial) doesn't parse and leaves seq
		// at 0.
		var g uint64
		var seq int
		if _, err := fmt.Sscanf(man.Partial.File, "g%06d-b%06d.partial", &g, &seq); err == nil {
			a.sealSeq = seq
		}
	}
	// A resumed appender always starts a new segment file rather than
	// reopening the last committed one: the committed file's CRC covers
	// its closed codec stream, and a fresh file keeps "committed files
	// are never rewritten" true for concurrent readers.
	return a, &Trace{dir: dir, man: man}, nil
}

// SetMeta replaces the metadata Seal records, for a writer whose header
// is complete only at the end of its stream (a spilled upload).
func (a *Appender) SetMeta(meta trace.Meta) { a.meta = meta }

// Append writes one job into the open segment, rotating at the store's
// per-segment job cap. Jobs must arrive in canonical order (submit
// time, then ID) for the caller's incremental fingerprint to match the
// one-shot upload; the appender itself only stores them.
func (a *Appender) Append(j *trace.Job) error {
	if a.done {
		return fmt.Errorf("storage: append after close")
	}
	if a.seg == nil {
		seg, err := createSegment(a.dir, segmentFile(a.gen, a.segIdx))
		if err != nil {
			return err
		}
		a.seg = seg
		a.sealedOpen = false
	}
	if err := a.seg.write(j); err != nil {
		return err
	}
	a.jobs++
	a.bytesMoved += int64(j.TotalBytes())
	if a.seg.jobs >= a.store.segJobs {
		return a.rotate()
	}
	return nil
}

// rotate finishes the open segment — codec flush, buffer flush, fsync,
// close — and moves it to the closed list.
func (a *Appender) rotate() error {
	if a.seg == nil {
		return nil
	}
	info, err := a.seg.finish()
	if err != nil {
		return err
	}
	a.closed = append(a.closed, info)
	a.segIdx++
	a.seg = nil
	return nil
}

// Each streams every job appended so far to fn, in order — the
// pre-commit readback: the spill-ingest path re-reads what it just
// wrote to derive the fingerprint (and, when the upload header was
// incomplete, the aggregate) without holding jobs in memory. The open
// segment is rotated first. Jobs decode into a reused batch, so fn must
// not retain them.
func (a *Appender) Each(fn func(*trace.Job) error) error {
	if a.done {
		return fmt.Errorf("storage: readback after close")
	}
	if err := a.rotate(); err != nil {
		return err
	}
	pending := &Trace{dir: a.dir, man: &Manifest{Meta: metaToManifest(a.meta), Segments: a.closed}}
	return pending.Each(fn)
}

// Sealed is a generation whose files are durable and whose manifest is
// built but not yet committed. Appender.Commit is the cheap atomic
// step, so callers can serialize it under their own locks without
// holding them across the streaming writes.
type Sealed struct {
	man *Manifest
}

// Seal makes everything appended so far durable and builds the
// manifest, ready to commit: the open segment's codec is flushed at a
// block boundary (blocks are self-contained, so the committed prefix
// decodes without the tail) and the file fsynced. fp must be the
// canonical fingerprint of all jobs appended so far, and partial (nil
// for none) the aggregate of all of them.
//
// The partial snapshot is a checkpoint, written only on the appender's
// first seal and once the jobs appended since the committed checkpoint
// reach 1/checkpointFraction of the trace, under a per-seal name so the
// committed one is never rewritten in place. Any other seal's manifest
// names the committed checkpoint, and Trace.LoadPartial replays the
// jobs past it; partial is then not read.
func (a *Appender) Seal(fp string, partial *core.Partial) (*Sealed, error) {
	if a.done {
		return nil, fmt.Errorf("storage: seal after close")
	}
	segments := a.closed
	if a.seg != nil {
		if err := a.seg.sync(); err != nil {
			return nil, err
		}
		segments = append(segments[:len(segments):len(segments)], a.seg.info())
		a.sealedOpen = true
	}
	a.sealSeq++
	man := &Manifest{
		Format:      manifestFormat,
		Generation:  a.gen,
		Name:        a.name,
		Fingerprint: fp,
		Meta:        metaToManifest(a.meta),
		Jobs:        a.jobs,
		BytesMoved:  a.bytesMoved,
		Segments:    segments,
	}
	switch {
	case partial == nil:
	case a.checkpointJobs >= 0 && (a.jobs-a.checkpointJobs)*checkpointFraction < a.jobs:
		man.Partial = a.checkpoint
	default:
		snap, err := partial.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("storage: encoding partial snapshot: %w", err)
		}
		name := checkpointFile(a.gen, a.sealSeq)
		if err := writeFileSync(filepath.Join(a.dir, name), snap); err != nil {
			return nil, err
		}
		man.Partial = &FileInfo{
			File:   name,
			Size:   int64(len(snap)),
			CRC32C: crc32.Checksum(snap, castagnoli),
		}
	}
	return &Sealed{man: man}, nil
}

// Commit atomically installs a sealed manifest as the trace's committed
// state, then garbage-collects what it superseded: the files of other
// generations that no open writer holds, and the previous checkpoint
// when the manifest names a new one (or none). The appender stays open
// for more appends.
func (a *Appender) Commit(sealed *Sealed) (*Trace, error) {
	if a.done {
		return nil, fmt.Errorf("storage: commit after close")
	}
	if err := a.store.checkOpen(); err != nil {
		return nil, err
	}
	a.store.commitMu.Lock()
	err := commitManifest(a.dir, sealed.man)
	if err == nil {
		a.store.sweep(a.dir, sealed.man)
	}
	a.store.commitMu.Unlock()
	if err != nil {
		return nil, err
	}
	a.fresh = false
	next := sealed.man.Partial
	if a.checkpoint != nil && next != a.checkpoint {
		os.Remove(filepath.Join(a.dir, a.checkpoint.File))
	}
	switch {
	case next == nil:
		a.checkpointJobs = -1
	case next != a.checkpoint:
		a.checkpointJobs = sealed.man.Jobs
	}
	a.checkpoint = next
	return &Trace{dir: a.dir, man: sealed.man}, nil
}

// Close releases the open segment's descriptor. A generation Create
// started and no Commit installed is removed outright, every file of
// it — how a rejected upload, spill or compaction is abandoned.
// Otherwise appends past the last commit stay on disk as an
// uncommitted tail that recovery (or the next committed batch)
// supersedes, and an open segment no seal reached is removed. The trace
// directory itself is never removed: another writer may have just
// created it for the same name, and recovery drops a directory left
// without a manifest.
func (a *Appender) Close() error {
	if a.done {
		return nil
	}
	a.done = true
	var err error
	if a.seg != nil {
		err = a.seg.f.Close()
		if !a.sealedOpen {
			os.Remove(filepath.Join(a.dir, a.seg.file))
		}
		a.seg = nil
	}
	if a.fresh {
		removeGeneration(a.dir, a.gen)
	}
	a.store.holdWriter(a.dir, a.gen, -1)
	if err != nil {
		return fmt.Errorf("storage: closing segment: %w", err)
	}
	return nil
}

// sweep removes the files in dir that man, the manifest just committed,
// does not name, except those of a generation an open writer holds: a
// writer still streaming an older or a newer generation keeps its
// files, so its own commit can still win. What a held generation
// leaves behind goes at a later commit or at recovery, which also
// cleans up after a crash here. The caller holds commitMu.
func (s *Store) sweep(dir string, man *Manifest) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keep := man.fileSet()
	for _, e := range entries {
		name := e.Name()
		if name == manifestName || keep[name] {
			continue
		}
		if gen, ok := fileGeneration(name); ok && s.held(dir, gen) {
			continue
		}
		os.Remove(filepath.Join(dir, name))
	}
}

// removeGeneration removes every file of generation gen in dir.
func removeGeneration(dir string, gen uint64) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if g, ok := fileGeneration(e.Name()); ok && g == gen {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// fileGeneration parses the generation a segment or snapshot file
// belongs to.
func fileGeneration(name string) (uint64, bool) {
	var gen uint64
	_, err := fmt.Sscanf(name, "g%06d", &gen)
	return gen, err == nil
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

// replaceFileSync atomically replaces path with data: it writes and
// fsyncs path.tmp, renames it over path and fsyncs the directory, so a
// crash leaves the old file or the new one. A failed step removes the
// tmp file.
func replaceFileSync(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: committing %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
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
// span.
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

// sync makes every job written so far durable: the codec is flushed at
// a self-contained block boundary, then the buffer is flushed and the
// file fsynced.
func (w *segmentWriter) sync() error {
	if err := w.enc.Flush(); err != nil {
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

// finish syncs and closes the file and returns the segment's info.
func (w *segmentWriter) finish() (SegmentInfo, error) {
	if err := w.sync(); err != nil {
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
