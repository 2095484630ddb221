package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// recover scans the traces directory, verifies every committed
// generation, and removes everything a crash left behind: uncommitted
// trace directories, torn segments (with their whole trace — data is
// authoritative), stale-generation files, and manifest tmp files. A
// manifest this build cannot read fails it, naming the trace.
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
		name := e.Name()
		if decoded, err := decodeName(name); err == nil {
			name = decoded
		}
		t, trimmed, reason, err := s.recoverTrace(dir, e.Name())
		if err != nil {
			return nil, fmt.Errorf("storage: refusing trace %q: %w; nothing in %s was removed", name, err, dir)
		}
		rec.Trimmed = append(rec.Trimmed, trimmed...)
		if t != nil {
			rec.Traces = append(rec.Traces, t)
			continue
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
// with the reason the directory must be dropped, or, touching nothing,
// the errUnreadable error of a manifest this build cannot read.
func (s *Store) recoverTrace(dir, encName string) (*Trace, []TrimmedTail, string, error) {
	man, err := readManifest(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, errUnreadable):
		return nil, nil, "", err
	case os.IsNotExist(err):
		return nil, nil, "no committed manifest (crashed before first commit)", nil
	case err != nil:
		return nil, nil, fmt.Sprintf("unreadable manifest: %v", err), nil
	}
	// The directory must be the canonical home of the manifest's name,
	// or two directories could claim one trace.
	if want, err := encodeName(man.Name); err != nil || want != encName {
		return nil, nil, fmt.Sprintf("directory %q does not match manifest name %q", encName, man.Name), nil
	}
	var trimmed []TrimmedTail
	for _, seg := range man.Segments {
		n, err := verifySegment(dir, seg)
		if err != nil {
			return nil, nil, fmt.Sprintf("torn trace: %v", err), nil
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
	return &Trace{dir: dir, man: man}, trimmed, "", nil
}
