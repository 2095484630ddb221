package server

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/storage"
)

// Background compaction, the serving half. storage.CompactTrace does
// the rewrite (and proves it preserved the fingerprint); this file
// decides which traces to rewrite and serializes the commit against
// everything else that swaps a trace's state (publish's uploads, spills
// and live batches); it keeps its own commit, swapping the generation
// under an unchanged identity.

// Compact rewrites every eligible fragmented trace into a packed
// generation and returns how many committed. A trace is eligible when
// it is disk-resident, has no open append session, and
// storage.NeedsCompaction's fragmentation triggers fire. The expensive
// rewrite runs outside the store lock; the commit (a manifest rename
// plus an entry swap) runs under it, re-checking that the trace is
// still the one that was scanned and invalidating any append session
// that opened mid-rewrite. Per-trace failures are collected, not fatal:
// one corrupt trace must not stop the others from compacting.
func (s *Store) Compact() (int, error) {
	if s.backing == nil {
		return 0, nil
	}
	type candidate struct {
		name   string
		fp     string
		stored *storage.Trace
	}
	var cands []candidate
	s.mu.RLock()
	for name, e := range s.entries {
		if e.stored == nil {
			continue
		}
		if _, open := s.appendStates[name]; open {
			// An open session is mid-growth: compacting now would only
			// invalidate it (costing the client a session replay) to pack
			// a generation the next batch immediately supersedes.
			continue
		}
		cands = append(cands, candidate{name, e.info.Fingerprint, e.stored})
	}
	s.mu.RUnlock()
	sort.Slice(cands, func(i, k int) bool { return cands[i].name < cands[k].name })

	n := 0
	var errs []error
	for _, c := range cands {
		if !s.backing.NeedsCompaction(c.stored) {
			continue
		}
		committed, err := s.compactOne(c.name, c.fp, c.stored)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if committed {
			n++
		}
	}
	return n, errors.Join(errs...)
}

// ReapIdleAppendSessions closes append sessions that have not
// committed a batch for at least olderThan, returning how many were
// closed. Sessions are cached per name for the life of the process (the
// O(committed jobs) open replay should run once, not per batch), but an
// open session also pins its trace uncompactable — Compact skips
// mid-growth traces — so without a reaper a single append would exempt
// a trace from background compaction forever. The sweep loop calls this
// with its own interval before each sweep: a feed that pauses for one
// full interval frees its trace to compact, and the next append
// transparently reopens against the packed generation (whose replay
// hashes to the same committed identity).
func (s *Store) ReapIdleAppendSessions(olderThan time.Duration) int {
	cutoff := time.Now().Add(-olderThan).UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for name, st := range s.appendStates {
		if st.lastBatch.Load() <= cutoff {
			s.invalidateAppendLocked(name)
			n++
		}
	}
	return n
}

// compactOne rewrites one trace and commits the packed generation,
// unless the trace was replaced while the rewrite ran (not an error —
// the replacement is a fresh generation with its own fragmentation
// history, picked up on a later sweep).
func (s *Store) compactOne(name, fp string, stored *storage.Trace) (bool, error) {
	w, sealed, err := s.backing.CompactTrace(stored)
	if err != nil {
		return false, fmt.Errorf("server: compacting %q: %w", name, err)
	}
	// Closing the writer discards the generation unless it commits.
	defer w.Close()

	s.mu.Lock()
	cur, ok := s.entries[name]
	if !ok || cur.stored == nil || cur.info.Fingerprint != fp {
		// Lost the race with a re-ingest, append, or delete: the written
		// generation describes content the store no longer serves.
		s.mu.Unlock()
		return false, nil
	}
	newStored, err := w.Commit(sealed)
	if err != nil {
		s.mu.Unlock()
		return false, fmt.Errorf("server: committing compaction of %q: %w", name, err)
	}
	// A session that opened after the candidate snapshot holds the OLD
	// generation's appender; left alone, its next batch would commit a
	// manifest regressing this one. Invalidate it as an upload does —
	// the in-flight batch sees the stale flag under this same lock and
	// retries against the compacted state.
	s.invalidateAppendLocked(name)
	e := &entry{
		t:         cur.t,
		info:      cur.info,
		partial:   cur.partial,
		recovered: cur.recovered,
		stored:    newStored,
	}
	s.installLocked(name, e)
	s.compactions++
	if d := stored.Segments() - newStored.Segments(); d > 0 {
		s.segmentsMerged += uint64(d)
	}
	if d := stored.Blocks() - newStored.Blocks(); d > 0 {
		s.blocksRefilled += uint64(d)
	}
	s.mu.Unlock()
	return true, nil
}
