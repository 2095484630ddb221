package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/trace"
)

// Legacy migration. Stores that predate the columnar codec wrote
// canonical JSONL segments, recorded in the manifest with an empty
// codec. Open converts every recovered generation that still names one
// into a colseg generation, once, through CompactTrace: every job is
// re-hashed and a fingerprint mismatch aborts, the partial snapshot is
// carried over, and the new manifest commits atomically. A failure
// fails Open naming the trace; its written files are removed and the
// legacy generation stays committed and untouched. After Open every
// committed segment is colseg, so every other read — the one
// segmentSource, which ParallelScanPartial frames through too — decodes
// nothing else, and eachLegacy below, which Each calls for a JSONL
// segment, is the one place storage decodes JSONL.

// legacy reports whether the manifest names a JSONL segment. It reads
// only the manifest, so recovering a colseg data directory decodes
// nothing.
func (m *Manifest) legacy() bool {
	for _, seg := range m.Segments {
		if seg.Codec != CodecColumnar {
			return true
		}
	}
	return false
}

// migrate rewrites legacy generation t as colseg and commits it.
func (s *Store) migrate(t *Trace) (*Trace, error) {
	a, sealed, err := s.CompactTrace(t)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	return a.Commit(sealed)
}

// Each streams every committed job to fn in manifest order — the read
// compaction, migration and append-session replay share. A colseg
// segment decodes into a reused batch, so fn must not retain the job.
func (t *Trace) Each(fn func(*trace.Job) error) error {
	for _, seg := range t.man.Segments {
		if seg.Codec == CodecColumnar {
			if err := t.source(seg, nil, nil).each(fn); err != nil {
				return err
			}
		} else if err := t.eachLegacy(seg, fn); err != nil {
			return fmt.Errorf("storage: reading %s: %w", seg.File, err)
		}
	}
	return nil
}

// eachLegacy streams one legacy segment's committed prefix to fn,
// decoded as canonical JSONL.
func (t *Trace) eachLegacy(seg SegmentInfo, fn func(*trace.Job) error) error {
	f, err := os.Open(filepath.Join(t.dir, seg.File))
	if err != nil {
		return err
	}
	defer f.Close()
	src := trace.NewJSONLBodyReader(io.LimitReader(f, seg.Size), t.Meta())
	for {
		j, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(j); err != nil {
			return err
		}
	}
}
