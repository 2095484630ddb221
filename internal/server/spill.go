package server

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The spill-ingest path: an upload that exceeds the hot tier's
// remaining job budget streams straight to disk segments, through the
// same storage.Appender every other write uses, instead of being
// rejected. The jobs never materialize in memory — validation, span
// tracking, fingerprinting, and the partial aggregate all run inline on
// the stream — so the only per-job heap is the aggregate's ~24 B. The
// resulting entry is disk-resident: reports finalize the inline-built
// partial or scan the segments out-of-core.
//
// Equivalence with the in-memory path is the invariant: the committed
// fingerprint, metadata, and aggregate must match what Put(normalize)
// would have produced for the same upload. Normalize sorts by
// (submit time, ID); a stream already in that order is untouched by the
// stable sort, so streaming it to disk verbatim is the normalized
// trace. An out-of-order stream small enough to sort is read back,
// sorted, and stored through the regular path; out-of-order *and* too
// big for memory is the one shape the engine rejects (no external
// sort).

// jobLess is normalize's sort order.
func jobLess(a, b *trace.Job) bool {
	if !a.SubmitTime.Equal(b.SubmitTime) {
		return a.SubmitTime.Before(b.SubmitTime)
	}
	return a.ID < b.ID
}

// spillIngest continues an Ingest whose buffered prefix (buffered, in
// arrival order) plus next job (pending) overflowed the hot budget:
// everything goes to a disk writer, the rest of src is drained behind
// it, and the trace commits as a disk-resident entry.
func (s *Store) spillIngest(name string, buffered *trace.Trace, pending *trace.Job, src trace.Source, p *core.Partial) (TraceInfo, error) {
	meta := buffered.Meta
	if meta.Name == "" {
		meta.Name = name // mirrors normalize
	}
	metaComplete := !meta.Start.IsZero() && meta.Length > 0

	// Closing the writer discards the generation unless it commits.
	w, err := s.backing.Create(name, meta)
	if err != nil {
		return TraceInfo{}, fmt.Errorf("server: spilling %q: %w", name, err)
	}
	defer w.Close()
	var hasher *trace.Hasher
	if metaComplete {
		hasher = trace.NewHasher()
		if err := hasher.Begin(meta); err != nil {
			return TraceInfo{}, err
		}
	}

	var (
		sorted    = true
		prev      *trace.Job
		minSubmit time.Time
		maxFinish time.Time
	)
	write := func(j *trace.Job) error {
		if err := j.Validate(); err != nil {
			return err
		}
		if prev != nil && jobLess(j, prev) {
			sorted = false
			hasher = nil // the canonical encoding is of the sorted order
		}
		prev = j
		if minSubmit.IsZero() || j.SubmitTime.Before(minSubmit) {
			minSubmit = j.SubmitTime
		}
		if f := j.FinishTime(); f.After(maxFinish) {
			maxFinish = f
		}
		if err := w.Append(j); err != nil {
			return err
		}
		if hasher != nil {
			if err := hasher.Write(j); err != nil {
				return err
			}
		}
		return nil
	}

	// The buffered prefix was already folded into p by Ingest's loop;
	// re-observing it here would double-count those jobs in the served
	// (and persisted) aggregate. Only jobs read after the switch to the
	// spill path are observed below.
	for _, j := range buffered.Jobs {
		if err := write(j); err != nil {
			return TraceInfo{}, err
		}
	}
	if err := write(pending); err != nil {
		return TraceInfo{}, err
	}
	if p != nil {
		p.Observe(pending)
	}
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return TraceInfo{}, err
		}
		if err := write(j); err != nil {
			return TraceInfo{}, err
		}
		if p != nil {
			p.Observe(j)
		}
	}

	// Finalize metadata exactly as normalize would.
	if meta.Start.IsZero() {
		meta.Start = minSubmit
	}
	if meta.Length <= 0 {
		meta.Length = maxFinish.Sub(meta.Start)
	}
	w.SetMeta(meta)

	if !sorted {
		return s.sortSpilled(name, w, meta)
	}

	if hasher == nil || p == nil {
		// The upload header was incomplete, so the canonical header (and
		// the aggregate's binning origin) only became known at EOF: one
		// sequential readback pass over the just-written segments derives
		// the fingerprint and the partial in constant memory.
		hasher, p, err = s.rescanSpilled(w, meta)
		if err != nil {
			return TraceInfo{}, fmt.Errorf("server: finalizing spilled %q: %w", name, err)
		}
	}

	if p != nil {
		p.Freeze()
	}
	sealed, err := w.Seal(hasher.Sum(), p)
	if err != nil {
		return TraceInfo{}, fmt.Errorf("server: sealing spilled %q: %w", name, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(name, 0); err != nil {
		s.rejected++
		return TraceInfo{}, err
	}
	stored, err := w.Commit(sealed)
	if err != nil {
		return TraceInfo{}, fmt.Errorf("server: committing spilled %q: %w", name, err)
	}
	info := storedInfo(stored)
	s.installLocked(name, &entry{info: info, partial: p, stored: stored})
	s.invalidateAppendLocked(name)
	s.ingests++
	s.spills++
	return info, nil
}

// rescanSpilled reads the written segments back once, in order, to
// compute the canonical fingerprint and the partial aggregate under the
// finalized metadata.
func (s *Store) rescanSpilled(w *storage.Appender, meta trace.Meta) (*trace.Hasher, *core.Partial, error) {
	shards, err := w.Shards()
	if err != nil {
		return nil, nil, err
	}
	defer closeSources(shards)
	hasher := trace.NewHasher()
	if err := hasher.Begin(meta); err != nil {
		return nil, nil, err
	}
	p, _ := core.NewPartial(meta, false) // best-effort, like put
	for _, sh := range shards {
		for {
			j, err := sh.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, err
			}
			if err := hasher.Write(j); err != nil {
				return nil, nil, err
			}
			if p != nil {
				p.Observe(j)
			}
		}
	}
	return hasher, p, nil
}

// sortSpilled handles the out-of-order spill: if the whole upload fits
// the hot budget after all (the budget was eaten by other residents,
// not by this trace's size), read it back, sort it, and store it
// through the regular write-through path — evicting colder residents is
// better than refusing data. Bigger than the budget, it is rejected:
// sorting needs random access the out-of-core path does not have.
func (s *Store) sortSpilled(name string, w *storage.Appender, meta trace.Meta) (TraceInfo, error) {
	shards, err := w.Shards()
	if err != nil {
		return TraceInfo{}, err
	}
	defer closeSources(shards)
	collected := trace.New(meta)
	for _, sh := range shards {
		for {
			j, err := sh.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return TraceInfo{}, err
			}
			if collected.Len() >= s.maxTotalJobs {
				return TraceInfo{}, errUnsortedSpill
			}
			collected.Add(j)
		}
	}
	return s.put(name, collected, nil)
}

// closeSources releases the descriptors of sources a rejected spill
// abandons mid-stream (a no-op for drained ones), before the writer
// unlinks their segments.
func closeSources(srcs []trace.Source) {
	for _, src := range srcs {
		if cl, ok := src.(io.Closer); ok {
			cl.Close()
		}
	}
}
