package storage

import (
	"fmt"
	"os"
	"path/filepath"
)

// recover scans the traces directory, verifies every committed
// generation, and removes everything a crash left behind: uncommitted
// trace directories, torn segments (with their whole trace — data is
// authoritative), stale-generation files, and manifest tmp files.
// Verified legacy generations are then migrated to colseg.
func (s *Store) recover() (*Recovery, error) {
	rec := &Recovery{}
	entries, err := os.ReadDir(s.tracesDir())
	if err != nil {
		return nil, fmt.Errorf("storage: scanning traces: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			// Stray file at the traces level; nothing commits here.
			os.Remove(filepath.Join(s.tracesDir(), e.Name()))
			continue
		}
		dir := filepath.Join(s.tracesDir(), e.Name())
		t, trimmed, reason := s.recoverTrace(dir, e.Name())
		rec.Trimmed = append(rec.Trimmed, trimmed...)
		if t != nil && t.man.legacy() {
			mt, err := s.migrate(t)
			if err != nil {
				return nil, fmt.Errorf("storage: migrating legacy trace %q to colseg: %w", t.Name(), err)
			}
			t = mt
			rec.Migrated = append(rec.Migrated, t.Name())
		}
		if t != nil {
			rec.Traces = append(rec.Traces, t)
			continue
		}
		name := e.Name()
		if decoded, err := decodeName(name); err == nil {
			name = decoded
		}
		rec.Dropped = append(rec.Dropped, Dropped{Name: name, Reason: reason})
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("storage: dropping %s: %w", dir, err)
		}
	}
	return rec, nil
}

// recoverTrace verifies one trace directory. It returns the trace
// handle plus any uncommitted live-append tails it truncated, or nil
// with the reason the directory must be dropped.
func (s *Store) recoverTrace(dir, encName string) (*Trace, []TrimmedTail, string) {
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, "no committed manifest (crashed before first commit)"
		}
		return nil, nil, fmt.Sprintf("unreadable manifest: %v", err)
	}
	// The directory must be the canonical home of the manifest's name,
	// or two directories could claim one trace.
	if want, err := encodeName(man.Name); err != nil || want != encName {
		return nil, nil, fmt.Sprintf("directory %q does not match manifest name %q", encName, man.Name)
	}
	var trimmed []TrimmedTail
	for _, seg := range man.Segments {
		n, err := verifySegment(dir, seg)
		if err != nil {
			return nil, nil, fmt.Sprintf("torn trace: %v", err)
		}
		if n > 0 {
			trimmed = append(trimmed, TrimmedTail{Name: man.Name, File: seg.File, Bytes: n})
		}
	}
	// Committed and verified: sweep files the manifest does not name
	// (stale generations, tmp files, crashed future generations).
	if entries, err := os.ReadDir(dir); err == nil {
		keep := man.fileSet()
		for _, e := range entries {
			if e.Name() == manifestName || keep[e.Name()] {
				continue
			}
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	s.mu.Lock()
	if man.Generation > s.gens[dir] {
		s.gens[dir] = man.Generation
	}
	s.mu.Unlock()
	return &Trace{dir: dir, man: man}, trimmed, ""
}
