// Package storage is the durable trace storage engine: a segmented,
// append-only on-disk store with crash-safe commits, persisted partial
// aggregates, and out-of-core readback — the layer that turns swimd's
// in-memory trace store into a restartable service whose analyses
// survive the process.
//
// Layout. Each stored trace owns one directory under <root>/traces/,
// named by a reversible filesystem-safe encoding of the trace name.
// Inside, job records live in generation-prefixed segment files
// (g000001-00000.seg, …) in the compact columnar colseg format (package
// colseg), and the trace's frozen core.Partial lives in a versioned
// snapshot file (g000001-b000001.partial). The single commit point is
// manifest.json: it names the generation's files with their sizes,
// CRC-32C checksums, and codecs, plus the trace metadata, fingerprint,
// and Table-1 totals. Fingerprints are always computed over the jobs'
// canonical JSONL serialization, never over segment bytes, so trace
// identity is independent of the on-disk representation.
//
// Commit protocol. Every generation is written by one type, Appender:
// Create (or OpenAppend) → Append → Seal → Commit, then Close. Seal
// writes and fsyncs the generation's segment and snapshot files in the
// trace directory; Commit writes manifest.json.tmp, fsyncs it, renames
// it over manifest.json, and fsyncs the directory. rename(2) is atomic,
// so a crash leaves either the old manifest or the new one — never a
// torn mix. After the commit, the files the new manifest does not name
// are deleted, except those of a generation an open writer still
// holds: two writers of one name each keep their files until they
// close, and whichever commits last wins. Closing a created generation
// that never committed removes its files.
//
// Recovery. Open scans every trace directory: a missing or unparsable
// manifest drops the directory (an uncommitted trace from a crashed
// writer); a committed manifest has every segment verified against its
// recorded size and CRC, and any mismatch drops the whole trace — data
// is authoritative and a torn segment cannot be partially trusted.
// Files not named by the manifest (stale generations, tmp files) are
// removed. A damaged partial snapshot, by contrast, only costs the
// snapshot: the jobs on disk can always rebuild it. A verified
// generation that still holds legacy JSONL segments is then rewritten
// to colseg once (see migrate.go), so every Trace that Open recovers
// holds only colseg segments.
//
// Reads. Every read of a committed segment — Each, Collect,
// LoadPartial's replay past its checkpoint, the appender's readback,
// WindowShards and ParallelScanPartial — goes through one per-segment
// source: a colseg.FrameScanner bounded by the manifest's committed
// size, so bytes a live appender wrote past it stay invisible, and a
// colseg.BlockDecoder that CRC-verifies each kept frame before it
// parses a column. Jobs decode into a reused batch; Collect copies
// them out, and every other reader must not retain them.
// ParallelScanPartial decodes columns instead: only the window's rows,
// folded straight into partials, with no job built.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// DefaultSegmentJobs bounds one segment file when Options leave it
// zero: ~128k jobs ≈ 32 MB of canonical JSONL — large enough that a
// paper-length trace stays in tens of segments, small enough that
// per-segment shards parallelize and a torn tail loses bounded work.
const DefaultSegmentJobs = 1 << 17

// CodecColumnar is the manifest codec of every segment the store
// writes: the compact columnar binary format (package colseg) with
// dictionary-encoded strings, delta varint times and IDs, per-block
// CRCs and zone maps. The only other codec a manifest can record is the
// empty string — canonical JSONL from v5-era stores — which Open
// migrates away.
const CodecColumnar = "colseg"

// Options tunes a Store.
type Options struct {
	// SegmentJobs caps the job records per segment file (zero:
	// DefaultSegmentJobs). Segments are the unit of out-of-core
	// sharding: one Source per segment feeds the parallel analysis.
	SegmentJobs int
}

// Store is a handle to one storage root. It hands out immutable Trace
// handles for committed generations and Appenders for writing them.
// The handle is safe for concurrent use, and so are concurrent writers
// of one name: the last to commit wins, and no commit removes a file
// another open writer still needs.
type Store struct {
	root    string
	segJobs int

	mu      sync.Mutex
	gens    map[string]uint64 // per-directory last allocated generation
	writers map[writerKey]int // open Appenders per generation
	closed  bool

	// commitMu orders each commit and its sweep with other commits and
	// with OpenAppend's read of the generation it continues, so a sweep
	// never removes files a later commit names.
	commitMu sync.Mutex
}

// writerKey names one generation of one trace directory.
type writerKey struct {
	dir string
	gen uint64
}

// Recovery reports what Open found: the committed traces that passed
// verification, what was dropped with the reason — so a server can log
// torn uploads it discarded rather than silently forgetting them — any
// uncommitted live-append tails truncated back to the last committed
// batch boundary, and the traces whose legacy JSONL segments were
// converted to colseg.
type Recovery struct {
	Traces   []*Trace
	Dropped  []Dropped
	Trimmed  []TrimmedTail
	Migrated []string
}

// Dropped names one trace directory recovery removed and why.
type Dropped struct {
	Name   string
	Reason string
}

// TrimmedTail names one segment whose uncommitted append tail recovery
// truncated: the trace keeps serving at its last committed batch.
type TrimmedTail struct {
	Name  string
	File  string
	Bytes int64
}

// Open creates (if needed) and recovers a storage root, returning the
// store and the recovery report. It fails, naming the trace, when a
// legacy generation cannot be migrated to colseg; that generation stays
// committed and untouched.
func Open(root string, opts Options) (*Store, *Recovery, error) {
	segJobs := opts.SegmentJobs
	if segJobs <= 0 {
		segJobs = DefaultSegmentJobs
	}
	s := &Store{root: root, segJobs: segJobs, gens: make(map[string]uint64), writers: make(map[writerKey]int)}
	if err := os.MkdirAll(s.tracesDir(), 0o755); err != nil {
		return nil, nil, fmt.Errorf("storage: creating root: %w", err)
	}
	rec, err := s.recover()
	if err != nil {
		return nil, nil, err
	}
	return s, rec, nil
}

func (s *Store) tracesDir() string { return filepath.Join(s.root, "traces") }

// Close marks the store closed; subsequent writers and commits fail.
// Committed state needs no flushing — every commit is synced before it
// returns — so Close is about refusing work during shutdown, not about
// writing anything.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *Store) checkOpen() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: store is closed")
	}
	return nil
}

// nextGen allocates the next generation number for a trace directory,
// consulting the committed manifest on first touch, and counts the
// caller as its open writer.
func (s *Store) nextGen(dir string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("storage: store is closed")
	}
	if _, ok := s.gens[dir]; !ok {
		man, err := readManifest(filepath.Join(dir, manifestName))
		if err == nil {
			s.gens[dir] = man.Generation
		} else {
			s.gens[dir] = 0
		}
	}
	s.gens[dir]++
	s.writers[writerKey{dir, s.gens[dir]}]++
	return s.gens[dir], nil
}

// holdWriter counts one more (delta 1) or one fewer (delta -1) open
// writer of generation gen in dir.
func (s *Store) holdWriter(dir string, gen uint64, delta int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := writerKey{dir, gen}
	if s.writers[k] += delta; s.writers[k] <= 0 {
		delete(s.writers, k)
	}
}

// held reports whether an open writer holds generation gen in dir.
func (s *Store) held(dir string, gen uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writers[writerKey{dir, gen}] > 0
}

// Delete removes the trace's directory — segments, snapshot, manifest —
// reclaiming its disk. Removing an absent trace is not an error.
func (s *Store) Delete(name string) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	dir, err := s.traceDir(name)
	if err != nil {
		return err
	}
	// Drop the manifest first so a crash mid-RemoveAll leaves an
	// uncommitted directory that recovery cleans, never a half-deleted
	// trace that still looks committed.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: deleting %q: %w", name, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("storage: deleting %q: %w", name, err)
	}
	s.mu.Lock()
	delete(s.gens, dir)
	s.mu.Unlock()
	return syncDir(s.tracesDir())
}

// traceDir maps a trace name to its directory.
func (s *Store) traceDir(name string) (string, error) {
	enc, err := encodeName(name)
	if err != nil {
		return "", err
	}
	return filepath.Join(s.tracesDir(), enc), nil
}

// encodeName maps an arbitrary trace name to a filesystem-safe,
// collision-free directory name: ASCII letters, digits, '.', '_', and
// '-' pass through (except a leading '.'), everything else becomes
// %XX. The encoding is injective, so distinct names can never share a
// directory, and decodeName inverts it.
func encodeName(name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("storage: empty trace name")
	}
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		safe := c == '_' || c == '-' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
			(c == '.' && i > 0)
		if safe {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	enc := b.String()
	if len(enc) > 200 {
		return "", fmt.Errorf("storage: trace name too long (%d encoded bytes, max 200)", len(enc))
	}
	return enc, nil
}

// decodeName inverts encodeName.
func decodeName(enc string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(enc); i++ {
		c := enc[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		if i+2 >= len(enc) {
			return "", fmt.Errorf("storage: truncated escape in %q", enc)
		}
		var v int
		if _, err := fmt.Sscanf(enc[i+1:i+3], "%02X", &v); err != nil {
			return "", fmt.Errorf("storage: bad escape in %q: %w", enc, err)
		}
		b.WriteByte(byte(v))
		i += 2
	}
	return b.String(), nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: syncing %s: %w", dir, err)
	}
	return nil
}
