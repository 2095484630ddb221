package storage

import (
	"fmt"

	"repro/internal/colseg"
	"repro/internal/trace"
)

// Background compaction. Live append (storage.Appender) optimizes for
// durability, not scan shape: every resumed session starts a new
// segment file and every batch commit flushes the codec at a block
// boundary, so a long-appended trace accumulates many small segments
// full of undersized colseg blocks — more open/decode overhead per
// scanned job, weaker zone-map pruning, bigger manifests. Compaction
// rewrites the committed generation into packed segments (full blocks,
// rebuilt zone maps, fresh per-segment submit spans) as a NEW
// generation, written by the same Appender as every other generation
// and committed through the standard atomic manifest protocol.
// Identity is canonical JSONL, so the rewrite preserves the fingerprint
// exactly — the compactor re-hashes every job it moves and aborts on
// any mismatch rather than committing a generation that lies about its
// content. Concurrent readers are safe by the store's standing rule:
// committed files are unlinked, never rewritten, and open descriptors
// survive the unlink. Concurrent appenders are the serving layer's
// concern: it either skips traces with open append sessions or
// invalidates them at commit, exactly as a re-ingest does.

// Compaction policy defaults: a generation triggers when it has
// accumulated DefaultCompactMinSegments segment files, or when its
// colseg blocks average below DefaultCompactMinFill of BlockJobs.
const (
	DefaultCompactMinSegments = 8
	DefaultCompactMinFill     = 0.5
)

// NeedsCompaction reports whether t's committed generation would
// benefit from compaction under the triggers above. Each fires only if
// packing would actually reduce what it counts, and manifests that
// predate per-segment block counts never trigger on fill. A generation
// the compactor itself wrote never re-triggers (its manifest is
// marked), so the background loop converges instead of rewriting packed
// traces forever.
func (s *Store) NeedsCompaction(t *Trace) bool {
	if t.Jobs() == 0 || t.man.Compacted {
		return false
	}
	packedSegs := (t.Jobs() + s.segJobs - 1) / s.segJobs
	if t.Segments() >= DefaultCompactMinSegments && t.Segments() > packedSegs {
		return true
	}
	if blocks, ok := t.colsegBlocks(); ok && blocks > packedBlocks(t.Jobs(), s.segJobs) {
		if float64(t.Jobs()) < DefaultCompactMinFill*float64(blocks)*float64(colseg.BlockJobs) {
			return true
		}
	}
	return false
}

// colsegBlocks sums the recorded block counts across the generation's
// segments. Not ok when any non-empty segment predates block counting
// (an older manifest) — fill is then unknown.
func (t *Trace) colsegBlocks() (int, bool) {
	for _, seg := range t.man.Segments {
		if seg.Blocks <= 0 && seg.Jobs > 0 {
			return 0, false
		}
	}
	return t.Blocks(), true
}

// packedBlocks is how many colseg blocks a packed rewrite of jobs
// records yields under segment cap segJobs — the convergence floor the
// fill trigger compares against.
func packedBlocks(jobs, segJobs int) int {
	blocks := 0
	for jobs > 0 {
		n := jobs
		if n > segJobs {
			n = segJobs
		}
		blocks += (n + colseg.BlockJobs - 1) / colseg.BlockJobs
		jobs -= n
	}
	return blocks
}

// Blocks sums the recorded colseg block counts (0 for manifests that
// predate block counts).
func (t *Trace) Blocks() int {
	n := 0
	for _, seg := range t.man.Segments {
		n += seg.Blocks
	}
	return n
}

// CompactTrace streams t's committed generation into a packed new
// generation and seals it, re-deriving the canonical fingerprint along
// the way: a mismatch with the committed manifest abandons the rewrite
// (segment corruption insurance — a compaction must be a byte-identical
// no-op or nothing). The persisted partial snapshot is carried over
// when readable; a damaged one only costs the snapshot, as on the
// recovery path. It returns the writer with its sealed generation: the
// caller commits it under whatever lock serializes writes to this name
// (and must invalidate or have excluded concurrent append sessions,
// whose manifests would otherwise regress the compacted generation),
// and Closes the writer, which discards the generation if it never
// committed.
func (s *Store) CompactTrace(t *Trace) (*Appender, *Sealed, error) {
	a, err := s.Create(t.Name(), t.Meta())
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Appender, *Sealed, error) {
		a.Close()
		return nil, nil, err
	}
	hasher := trace.NewHasher()
	if err := hasher.Begin(t.Meta()); err != nil {
		return fail(err)
	}
	// Every job is hashed and re-encoded on the spot, so Each's reused
	// batches are safe.
	err = t.Each(func(j *trace.Job) error {
		if err := hasher.Write(j); err != nil {
			return err
		}
		return a.Append(j)
	})
	if err != nil {
		return fail(fmt.Errorf("storage: compacting %q: %w", t.Name(), err))
	}
	if got := hasher.Sum(); got != t.Fingerprint() {
		return fail(fmt.Errorf("storage: compacting %q: rewrite fingerprint %.12s does not match committed %.12s",
			t.Name(), got, t.Fingerprint()))
	}
	// Carry the frozen aggregate snapshot into the new generation; a
	// damaged or absent one only costs the snapshot (reports rebuild
	// from the jobs), exactly as on recovery.
	partial, err := t.LoadPartial()
	if err != nil {
		partial = nil
	}
	sealed, err := a.Seal(t.Fingerprint(), partial)
	if err != nil {
		return fail(err)
	}
	sealed.man.Compacted = true
	return a, sealed, nil
}
