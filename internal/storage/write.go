package storage

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// Stage writes a whole in-memory trace as a new sealed (durable but
// uncommitted) generation: segments, snapshot, fsyncs — everything but
// the manifest rename. The serving layer runs this outside its store
// lock and serializes only the cheap Commit, so a multi-second
// write-through never blocks readers. The trace must already be
// normalized and fp must be its canonical fingerprint.
func (s *Store) Stage(name string, tr *trace.Trace, fp string, partial *core.Partial) (*Sealed, error) {
	st, err := s.NewStager(name)
	if err != nil {
		return nil, err
	}
	for _, j := range tr.Jobs {
		if err := st.Write(j); err != nil {
			st.Abort()
			return nil, err
		}
	}
	sum := tr.Summarize()
	sealed, err := st.Seal(tr.Meta, fp, tr.Len(), int64(sum.BytesMoved), partial)
	if err != nil {
		st.Abort()
		return nil, err
	}
	return sealed, nil
}
