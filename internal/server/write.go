package server

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The write path. Every new store state — a whole upload, an upload
// larger than memory, a Put, a live batch — is built by one session and
// committed by one publish. A session takes each job once: it keeps
// the job in the resident copy while that fits the hot budget, or
// writes it through the storage.Appender (with backing), then hashes it
// into the canonical fingerprint, gathers it for the partial aggregate
// and counts it. publish writes a resident copy through and
// seals the generation outside the store lock; under it, it admits,
// commits the manifest and swaps the entry, so the disk and memory
// views never disagree about which writer won a race on a name.
//
// A spill is a session that dropped its resident copy: the upload
// crossed the remaining hot budget, so the copy is written through and
// the rest of the stream goes to disk only.
// Equivalence with Put is the invariant: normalize sorts by (submit
// time, ID) and derives a missing header from the job span, so a
// stream with a complete header and jobs already in that order is the
// normalized trace, and committing it as written gives Put's
// fingerprint, metadata and aggregate. Any other upload is normalized
// in memory when it fits. A spilled one is read back once: sorted in
// memory if it fits the whole budget, re-folded under the header
// derived at EOF if only the header was incomplete. Out of order and
// too big to sort is the one shape rejected (no external sort).

// errUnsortedSpill rejects the one upload shape the spill path cannot
// take: jobs out of submit order in a stream too large to sort in
// memory (the engine has no external sort).
var errUnsortedSpill = errors.New("server: upload is not in submit order and exceeds the in-memory budget (sort the stream before uploading)")

// checkSpan rejects, as a bad request, a trace header whose start or
// start + length trace.CheckNanoRange rejects; job submit times meet
// the same rule in trace.Job.Validate.
func checkSpan(meta trace.Meta) error {
	for _, t := range []time.Time{meta.Start, meta.Start.Add(meta.Length)} {
		if err := trace.CheckNanoRange(t); err != nil {
			return badReq("trace header span from %s for %s: %v", meta.Start.Format(time.RFC3339Nano), meta.Length, err)
		}
	}
	return nil
}

// jobLess is normalize's sort order.
func jobLess(a, b *trace.Job) bool {
	if !a.SubmitTime.Equal(b.SubmitTime) {
		return a.SubmitTime.Before(b.SubmitTime)
	}
	return a.ID < b.ID
}

// session is one generation being written. hasher is nil while the
// canonical header is unknown (an upload without start and length) and
// once a job arrives out of order; live is nil when the session does
// not observe (or the header cannot bin); cols gathers jobs for it. The
// order fence is the last folded job's (submit time, ID); it and cols
// copy jobs by value, as replayed jobs decode into volatile batches.
type session struct {
	meta     trace.Meta
	hasher   *trace.Hasher
	live     *core.Partial
	cols     trace.Columns
	appender *storage.Appender // nil without backing
	hot      *trace.Trace      // the resident copy; nil once dropped

	count      int
	bytesMoved int64
	lastSubmit time.Time
	lastID     int64
	unordered  bool
}

// create starts a session writing a replacement generation of name
// (through a Created appender, with backing).
func (s *Store) create(name string, meta trace.Meta) (*session, error) {
	ss := &session{meta: meta}
	if s.backing != nil {
		a, err := s.backing.Create(name, meta)
		if err != nil {
			return nil, fmt.Errorf("server: writing %q: %w", name, err)
		}
		ss.appender = a
	}
	return ss, nil
}

// begin (re)starts the fold under meta: a hasher over the header, zero
// counts, and — when observe is set — a fresh exact aggregate
// (best-effort: nil when meta cannot bin hourly).
func (ss *session) begin(meta trace.Meta, observe bool) error {
	ss.meta, ss.count, ss.bytesMoved, ss.live = meta, 0, 0, nil
	ss.cols.Reset()
	if observe {
		ss.live, _ = core.NewPartial(meta, false)
	}
	ss.hasher = trace.NewHasher()
	return ss.hasher.Begin(meta)
}

// add takes j into the generation — into the resident copy while the
// session keeps one, otherwise through the appender — and folds it.
func (ss *session) add(j *trace.Job) error {
	if ss.hot != nil {
		ss.hot.Add(j)
	} else if err := ss.write(j); err != nil {
		return err
	}
	return ss.fold(j)
}

// write streams jobs through the appender (a no-op without backing). A
// resident copy is written only when the session spills or publishes:
// until then no file of it is on disk for a concurrent commit of a
// newer generation of the name to sweep away, and an upload normalized
// in memory is never written twice.
func (ss *session) write(js ...*trace.Job) error {
	if ss.appender == nil {
		return nil
	}
	for _, j := range js {
		if err := ss.appender.Append(j); err != nil {
			return err
		}
	}
	return nil
}

// fold hashes, gathers and counts j and moves the order fence to it.
// A job before the fence drops the hasher: the canonical encoding is of
// the sorted order.
func (ss *session) fold(j *trace.Job) error {
	if ss.count > 0 && ss.precedes(j) {
		ss.unordered, ss.hasher = true, nil
	}
	ss.lastSubmit, ss.lastID = j.SubmitTime, j.ID
	if ss.hasher != nil {
		if err := ss.hasher.Write(j); err != nil {
			return err
		}
	}
	if ss.live != nil {
		if ss.cols.Append(j); ss.cols.Len() == trace.ChunkRows {
			ss.folded()
		}
	}
	ss.count++
	ss.bytesMoved += int64(j.TotalBytes())
	return nil
}

// folded folds the pending chunk and returns the aggregate (nil if none).
func (ss *session) folded() *core.Partial {
	if ss.live != nil && ss.cols.Len() > 0 {
		ss.live.ObserveColumns(&ss.cols)
		ss.cols.Reset()
	}
	return ss.live
}

// precedes reports whether j sorts before the order fence.
func (ss *session) precedes(j *trace.Job) bool {
	return j.SubmitTime.Before(ss.lastSubmit) || j.SubmitTime.Equal(ss.lastSubmit) && j.ID < ss.lastID
}

// close ends the writer; a generation that never committed is removed.
func (ss *session) close() {
	if ss.appender != nil {
		ss.appender.Close()
	}
}

// publish commits ss, with the aggregate p (frozen here; nil for none),
// as name's new state, and returns it with the fingerprint name had
// before ("" for a new name). Writing a resident copy through and the
// seal (the fsyncs) run outside the store lock. Under it an append
// first checks that its session st is still current, then admission is
// re-checked authoritatively, and the manifest commit is ordered with
// the entry swap. An upload replaces the name, so it retires the name's
// append session.
func (s *Store) publish(name string, ss *session, p *core.Partial, st *appendState) (TraceInfo, string, error) {
	if p != nil {
		p.Freeze()
	}
	info := TraceInfo{
		Name:        name,
		Fingerprint: ss.hasher.Sum(),
		Workload:    ss.meta.Name,
		Machines:    ss.meta.Machines,
		LengthMS:    ss.meta.Length.Milliseconds(),
		Jobs:        ss.count,
		BytesMoved:  ss.bytesMoved,
	}
	var sealed *storage.Sealed
	if ss.appender != nil {
		var err error
		if ss.hot != nil {
			err = ss.write(ss.hot.Jobs...)
		}
		if err == nil {
			sealed, err = ss.appender.Seal(info.Fingerprint, p)
		}
		if err != nil {
			return TraceInfo{}, "", fmt.Errorf("server: persisting %q: %w", name, err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if st != nil && st.stale.Load() {
		// Lost the race with a replacement between write and commit: the
		// replacement owns the name (and, on disk, a newer generation).
		// The batch's bytes are an uncommitted tail; nothing to undo.
		return TraceInfo{}, "", errSessionStale
	}
	if err := s.admitLocked(name, ss.count); err != nil {
		return TraceInfo{}, "", err
	}
	e := &entry{t: ss.hot, info: info, partial: p}
	if ss.appender != nil {
		stored, err := ss.appender.Commit(sealed)
		if err != nil {
			return TraceInfo{}, "", fmt.Errorf("server: committing %q: %w", name, err)
		}
		e.stored = stored
	}
	var prevFP string
	if old, ok := s.entries[name]; ok {
		prevFP = old.info.Fingerprint
	}
	s.installLocked(name, e)
	if st != nil {
		s.appends++
		return info, prevFP, nil
	}
	s.invalidateAppendLocked(name)
	s.ingests++
	if ss.hot == nil {
		s.spills++
	}
	return info, prevFP, nil
}

// Ingest drains a job stream into the store under name, validating and
// folding each job as it decodes. The stream is bounded as it is read:
// an upload that would not fit the *remaining* hot-tier job budget
// (counting the trace it would replace as freed) is, without backing,
// rejected mid-stream before it can balloon the heap — and, with
// backing, spilled: the resident copy is written through and dropped,
// and the trace commits disk-resident, served out-of-core.
//
// When the upload header carries complete metadata, the fingerprint and
// the partial aggregate are built inline — the analysis work of a first
// cold report happens during the upload itself. The builders are
// order-independent, so observing the pre-sort upload order produces
// exactly the aggregate of the normalized trace.
func (s *Store) Ingest(name string, src trace.Source) (TraceInfo, error) {
	info, err := s.ingest(name, src)
	return info, s.reject(&s.rejected, err)
}

func (s *Store) ingest(name string, src trace.Source) (TraceInfo, error) {
	if name == "" {
		return TraceInfo{}, fmt.Errorf("server: empty trace name")
	}
	// A store at its trace cap rejects before a byte is written.
	if err := s.precheck(name, 0); err != nil {
		return TraceInfo{}, err
	}
	budget := s.RemainingBudget(name)
	meta := src.Meta()
	if meta.Name == "" {
		meta.Name = name // mirrors normalize
	}
	if !meta.Start.IsZero() {
		if err := checkSpan(meta); err != nil {
			return TraceInfo{}, err
		}
	}
	ss, err := s.create(name, meta)
	if err != nil {
		return TraceInfo{}, err
	}
	defer ss.close()
	ss.hot = trace.New(meta)
	if !meta.Start.IsZero() && meta.Length > 0 {
		if err := ss.begin(meta, true); err != nil {
			return TraceInfo{}, err
		}
	}
	var start, end time.Time // the span normalize would derive
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return TraceInfo{}, err
		}
		if err := j.Validate(); err != nil {
			return TraceInfo{}, err
		}
		if ss.hot != nil && ss.count >= budget {
			if ss.appender == nil {
				return TraceInfo{}, fmt.Errorf("%w: upload exceeds the remaining %d-job budget", ErrStoreFull, budget)
			}
			// The spill: the resident copy goes to disk, and so does the
			// rest of the stream.
			if err := ss.write(ss.hot.Jobs...); err != nil {
				return TraceInfo{}, fmt.Errorf("server: writing %q: %w", name, err)
			}
			ss.hot = nil
		}
		if err := ss.add(j); err != nil {
			return TraceInfo{}, fmt.Errorf("server: writing %q: %w", name, err)
		}
		if start.IsZero() || j.SubmitTime.Before(start) {
			start = j.SubmitTime
		}
		if f := j.FinishTime(); f.After(end) {
			end = f
		}
	}

	switch {
	case ss.hasher != nil && ss.count > 0:
		// Canonical: the stream as written is the normalized trace.
	case ss.hot != nil:
		// Fits memory: normalize there, adopting the inline partial.
		return s.put(name, ss.hot, ss.folded())
	case ss.unordered:
		// Spilled out of order: sort in memory if the whole budget holds it.
		if ss.count > s.maxTotalJobs {
			return TraceInfo{}, errUnsortedSpill
		}
		// The readback decodes into a reused batch: copy the jobs out,
		// into one allocation.
		jobs := make([]trace.Job, 0, ss.count)
		if err := ss.appender.Each(func(j *trace.Job) error { jobs = append(jobs, *j); return nil }); err != nil {
			return TraceInfo{}, fmt.Errorf("server: reading back %q: %w", name, err)
		}
		t := trace.New(meta)
		for i := range jobs {
			t.Add(&jobs[i])
		}
		return s.put(name, t, ss.folded())
	default:
		// In order, but the header was complete only at EOF: re-fold the
		// written jobs under it.
		meta.FillFromSpan(start, end)
		if err := checkSpan(meta); err != nil {
			return TraceInfo{}, err
		}
		ss.appender.SetMeta(meta)
		if err := ss.begin(meta, true); err != nil {
			return TraceInfo{}, err
		}
		if err := ss.appender.Each(ss.fold); err != nil {
			return TraceInfo{}, fmt.Errorf("server: reading back %q: %w", name, err)
		}
	}
	info, _, err := s.publish(name, ss, ss.folded(), nil)
	return info, err
}

// reject counts a failed write in counter and returns err (nil counts
// nothing), so every write entry point counts each failure once.
func (s *Store) reject(counter *uint64, err error) error {
	if err != nil {
		s.mu.Lock()
		*counter++
		s.mu.Unlock()
	}
	return err
}
