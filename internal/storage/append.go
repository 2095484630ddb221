package storage

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/trace"
)

// Appender writes batched live appends into an *open* trace generation.
// Unlike a Stager — which stages a whole replacement generation and
// commits once — an Appender keeps one segment file open across batch
// commits: each Seal flushes the codec at a block boundary, fsyncs the
// open segment, and builds a manifest whose SegmentInfo records the
// file's committed prefix (size, CRC, job count). The file keeps
// growing after the commit; recovery verifies the committed prefix and
// truncates any uncommitted tail, so a crash mid-batch loses exactly
// the jobs past the last committed batch boundary and nothing else.
//
// Segments rotate at the store's job cap exactly as on the one-shot
// path, so a long-lived appended trace is indistinguishable on disk
// from an uploaded one (same file names, same codec, same manifest
// schema). Per-name write serialization — one appender per trace, no
// concurrent Stager on the same name — is the caller's concern, as it
// is for the rest of the store.
type Appender struct {
	store *Store
	dir   string
	name  string
	gen   uint64
	meta  trace.Meta

	jobs       int
	bytesMoved int64

	closed []SegmentInfo // fully rotated segments

	// seg is the open segment (nil between rotations). Its running size
	// and CRC are exactly the committed-prefix stats at each Seal: every
	// byte the codec emitted so far passed through it.
	seg    *segmentWriter
	segIdx int

	batchSeq     int
	prevPartial  string
	sealedOpen   bool // open segment appears in the last sealed manifest
	doneOrClosed bool
}

// OpenAppend opens name for live batched appends. A fresh name creates
// the trace directory and allocates a new generation with meta as the
// trace metadata; an existing trace is continued — its committed
// generation keeps its segment files and new segments are appended
// after them — provided meta matches the committed metadata exactly
// (the fingerprint and the hourly partial bins both hash the header
// first, so appended jobs must agree on it). It returns the appender
// plus the committed state being continued (nil for a fresh name).
func (s *Store) OpenAppend(name string, meta trace.Meta) (*Appender, *Trace, error) {
	dir, err := s.traceDir(name)
	if err != nil {
		return nil, nil, err
	}
	if err := s.checkOpen(); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("storage: creating trace dir: %w", err)
	}
	a := &Appender{store: s, dir: dir, name: name, meta: meta}
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		if !os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("storage: opening %q for append: %w", name, err)
		}
		gen, err := s.nextGen(dir)
		if err != nil {
			return nil, nil, err
		}
		a.gen = gen
		return a, nil, nil
	}
	if got := man.Meta.TraceMeta(); !got.Start.Equal(meta.Start) || got.Length != meta.Length ||
		got.Machines != meta.Machines || got.Name != meta.Name {
		return nil, nil, fmt.Errorf("storage: append metadata %+v does not match committed %+v", meta, got)
	}
	a.gen = man.Generation
	a.jobs = man.Jobs
	a.bytesMoved = man.BytesMoved
	a.closed = append(a.closed, man.Segments...)
	a.segIdx = len(man.Segments)
	if man.Partial != nil {
		a.prevPartial = man.Partial.File
		// Resume the batch sequence past the committed snapshot's so the
		// next Seal never rewrites it in place. A one-shot upload's
		// snapshot (g%06d.partial) doesn't parse and leaves seq at 0.
		var g uint64
		var seq int
		if _, err := fmt.Sscanf(man.Partial.File, "g%06d-b%06d.partial", &g, &seq); err == nil {
			a.batchSeq = seq
		}
	}
	// A resumed appender always starts a new segment file rather than
	// reopening the last committed one: the committed file's CRC covers
	// its closed codec stream, and a fresh file keeps "committed files
	// are never rewritten" true for concurrent readers.
	return a, &Trace{dir: dir, man: man}, nil
}

// Append writes one job into the open segment, rotating at the store's
// per-segment job cap. Jobs must arrive in canonical order (submit
// time, then ID) for the caller's incremental fingerprint to match the
// one-shot upload; the appender itself only stores them.
func (a *Appender) Append(j *trace.Job) error {
	if a.doneOrClosed {
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

// Jobs returns the total jobs written (committed plus pending).
func (a *Appender) Jobs() int { return a.jobs }

// BytesMoved returns the running Table-1 bytes-moved total.
func (a *Appender) BytesMoved() int64 { return a.bytesMoved }

// rotate finishes the open segment — codec close, flush, fsync — and
// moves it to the closed list.
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

// Seal makes everything appended so far durable and builds the batch's
// manifest, ready to commit: the open segment's codec is flushed at a
// block boundary (blocks are self-contained, so the committed prefix
// decodes without the tail), the file fsynced, and the partial snapshot
// written under a per-batch name so the previous batch's committed
// snapshot is never rewritten in place. fp must be the canonical
// fingerprint of all jobs appended so far.
func (a *Appender) Seal(fp string, partial *core.Partial) (*Sealed, error) {
	if a.doneOrClosed {
		return nil, fmt.Errorf("storage: seal after close")
	}
	segments := a.closed
	if a.seg != nil {
		if err := a.seg.sync(false); err != nil {
			return nil, err
		}
		segments = append(segments[:len(segments):len(segments)], a.seg.info())
		a.sealedOpen = true
	}
	a.batchSeq++
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
	if partial != nil {
		snap, err := partial.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("storage: encoding partial snapshot: %w", err)
		}
		name := batchPartialFile(a.gen, a.batchSeq)
		if err := writeFileSync(filepath.Join(a.dir, name), snap); err != nil {
			return nil, err
		}
		man.Partial = &FileInfo{
			File:   name,
			Size:   int64(len(snap)),
			CRC32C: crc32.Checksum(snap, castagnoli),
		}
	}
	return &Sealed{store: a.store, dir: a.dir, man: man}, nil
}

// Commit atomically installs a sealed batch and garbage-collects the
// previous batch's partial snapshot (which Sealed.Commit's sweep leaves
// alone — it shares the committed generation). The appender stays open
// for more appends.
func (a *Appender) Commit(sealed *Sealed) (*Trace, error) {
	t, err := sealed.Commit()
	if err != nil {
		return nil, err
	}
	committed := ""
	if sealed.man.Partial != nil {
		committed = sealed.man.Partial.File
	}
	if a.prevPartial != "" && a.prevPartial != committed {
		os.Remove(filepath.Join(a.dir, a.prevPartial))
	}
	a.prevPartial = committed
	return t, nil
}

// Close releases the open segment's descriptor without committing.
// Appends past the last commit stay on disk as an uncommitted tail that
// recovery (or the next committed batch) supersedes; if nothing was
// ever committed and the open segment never reached a manifest, the
// file is removed outright.
func (a *Appender) Close() error {
	if a.doneOrClosed {
		return nil
	}
	a.doneOrClosed = true
	if a.seg != nil {
		err := a.seg.f.Close()
		if !a.sealedOpen {
			os.Remove(filepath.Join(a.dir, a.seg.file))
		}
		a.seg = nil
		if err != nil {
			return fmt.Errorf("storage: closing segment: %w", err)
		}
	}
	// A fresh name that never committed leaves an empty directory;
	// remove it quietly (fails, ignored, when non-empty).
	os.Remove(a.dir)
	return nil
}

// batchPartialFile names the aggregate snapshot committed by batch seq
// of generation gen. Distinct from partialFile so a live-append batch
// never rewrites the previous batch's committed snapshot in place.
func batchPartialFile(gen uint64, seq int) string {
	return fmt.Sprintf("%s-b%06d.partial", genPrefix(gen), seq)
}
