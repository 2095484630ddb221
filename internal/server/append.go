package server

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The live-ingest path: batched appends into an open trace. Every
// committed batch is a full store state — fingerprint, frozen partial
// aggregate, durable segments — byte-identical to what a one-shot
// upload of the same prefix would have produced, so readers never see
// an "appending" trace as anything but a normal (shorter) trace.
//
// The machinery that makes a batch cheap is all incremental:
//   - the fingerprint extends a running trace.Hasher (the canonical
//     JSONL hash is a stream hash, so in-order appends extend it);
//   - the aggregate extends a private mutable core.Partial, and each
//     commit refreezes it (sorting only the batch's samples into the
//     sorted rest) and publishes an immutable deep copy
//     (append-and-refreeze: published partials stay frozen, as the
//     entry contract requires);
//   - the segments extend storage's open append generation, with the
//     manifest commit per batch as the durability point.
//
// Incremental hashing and hourly binning both need the header fixed up
// front, so an appended trace must declare complete metadata (start +
// length horizon) in its first batch — the horizon is the window the
// time series bins over; jobs past it still store and count, clamped
// into the final bin exactly as a one-shot upload's stragglers are.

// ErrAppendConflict rejects an append that lost a race with a
// replacement of the trace (re-upload, delete), contradicts the
// trace's committed metadata, or breaks append order. Mapped to HTTP
// 409: the client should re-read the trace state and retry.
var ErrAppendConflict = errors.New("server: append conflicts with the trace's committed state")

// errAppendOrder is the order violation shape of ErrAppendConflict.
func errAppendOrder(j *trace.Job, lastSubmit time.Time, lastID int64) error {
	return fmt.Errorf("%w: job %d at %s precedes the committed tail (%s, job %d); appends must arrive in (submit time, id) order",
		ErrAppendConflict, j.ID, j.SubmitTime.Format(time.RFC3339), lastSubmit.Format(time.RFC3339), lastID)
}

// appendState is one trace's live append session: the running hasher,
// the private mutable aggregate, and (with backing) the open storage
// generation. Batches serialize on mu; the store's write lock is taken
// only for the commit. stale is set (under the store's write lock) when
// a Put, spill, or Delete replaces the trace out from under the
// session — the session is then abandoned and the next append reopens
// from the new committed state.
type appendState struct {
	mu   sync.Mutex
	meta trace.Meta

	hasher *trace.Hasher
	live   *core.Partial // private mutable aggregate; nil when disabled
	jobs   []*trace.Job  // memory mode: all jobs, committed snapshots alias prefixes

	appender *storage.Appender // disk mode; nil without backing

	count      int
	bytesMoved int64
	lastSubmit time.Time
	lastID     int64

	stale atomic.Bool
	// lastBatch is the unix-nano wall time of the session's open or its
	// most recent committed batch, read lock-free by the idle reaper.
	lastBatch atomic.Int64
}

// teardown closes the abandoned session's open descriptor once any
// in-flight batch has drained. Runs on its own goroutine: the
// invalidator holds the store lock, an in-flight batch holds mu and may
// need the store lock to finish — so the close must wait outside both.
func (st *appendState) teardown() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.appender != nil {
		st.appender.Close()
	}
}

// invalidateAppendLocked detaches name's live append session, if any,
// marking it stale so an in-flight batch aborts instead of committing
// over the replacement. Caller holds mu's write lock.
func (s *Store) invalidateAppendLocked(name string) {
	st, ok := s.appendStates[name]
	if !ok {
		return
	}
	delete(s.appendStates, name)
	st.stale.Store(true)
	go st.teardown()
}

// dropAppendSession abandons a session after a failure that left it
// unusable (a write error mid-batch, a lost commit race): it is
// detached from the map unless a replacement session already took the
// slot, and its descriptor closed.
func (s *Store) dropAppendSession(name string, st *appendState) {
	s.mu.Lock()
	if cur, ok := s.appendStates[name]; ok && cur == st {
		delete(s.appendStates, name)
	}
	s.mu.Unlock()
	st.stale.Store(true)
	if st.appender != nil {
		st.appender.Close()
	}
}

// Append drains src as one batch appended to name, committing the
// grown trace — fingerprint, frozen aggregate, and (with backing)
// durable segments — as a single atomic state swap. It returns the new
// identity, the number of jobs appended, and the fingerprint the trace
// had before the batch ("" when the batch created it), which the
// handler uses for cache hygiene.
//
// A fresh name requires complete metadata in the batch header (start
// and length); later batches may repeat or omit it, but contradicting
// it is a conflict. Jobs must not precede the committed tail in
// (submit time, id) order — the canonical encoding is of the sorted
// stream, and the running hash cannot reorder what it already hashed.
// Jobs within one batch are sorted here, so any single batch is
// order-free internally.
func (s *Store) Append(name string, src trace.Source) (TraceInfo, int, string, error) {
	if name == "" {
		return TraceInfo{}, 0, "", fmt.Errorf("server: empty trace name")
	}
	batch, err := collectBatch(src)
	if err != nil {
		s.countAppendRejected()
		return TraceInfo{}, 0, "", err
	}

	// A replaced-under-us session retries against the new committed
	// state; bound the retries so a pathological replace loop cannot
	// spin forever.
	for attempt := 0; ; attempt++ {
		info, prevFP, err := s.appendBatch(name, src.Meta(), batch)
		if err == nil {
			return info, len(batch), prevFP, nil
		}
		if errors.Is(err, errSessionStale) && attempt < 3 {
			continue
		}
		s.countAppendRejected()
		return TraceInfo{}, 0, "", err
	}
}

// errSessionStale is the internal retry signal: the session was
// invalidated between lookup and lock.
var errSessionStale = errors.New("server: append session went stale")

// collectBatch drains and validates one append batch, sorting it into
// canonical (submit time, id) order.
func collectBatch(src trace.Source) ([]*trace.Job, error) {
	var batch []*trace.Job
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := j.Validate(); err != nil {
			return nil, err
		}
		batch = append(batch, j)
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("server: empty append batch")
	}
	sort.SliceStable(batch, func(i, k int) bool { return jobLess(batch[i], batch[k]) })
	return batch, nil
}

// appendBatch runs one attempt: resolve (or open) the session, write
// the batch through it, and commit the new state.
func (s *Store) appendBatch(name string, batchMeta trace.Meta, batch []*trace.Job) (TraceInfo, string, error) {
	st, err := s.appendSession(name, batchMeta)
	if err != nil {
		return TraceInfo{}, "", err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stale.Load() {
		return TraceInfo{}, "", errSessionStale
	}
	if err := checkBatchMeta(batchMeta, st.meta); err != nil {
		return TraceInfo{}, "", err
	}
	if st.count > 0 && jobLess(batch[0], &trace.Job{SubmitTime: st.lastSubmit, ID: st.lastID}) {
		return TraceInfo{}, "", errAppendOrder(batch[0], st.lastSubmit, st.lastID)
	}
	// Sample the admission bounds before the expensive work; the commit
	// re-checks authoritatively under the write lock.
	if err := s.precheckAppend(name, len(batch)); err != nil {
		return TraceInfo{}, "", err
	}

	for _, j := range batch {
		if st.appender != nil {
			if err := st.appender.Append(j); err != nil {
				s.dropAppendSession(name, st)
				return TraceInfo{}, "", fmt.Errorf("server: appending to %q: %w", name, err)
			}
		} else {
			st.jobs = append(st.jobs, j)
		}
		if err := st.hasher.Write(j); err != nil {
			s.dropAppendSession(name, st)
			return TraceInfo{}, "", err
		}
		if st.live != nil {
			st.live.Observe(j)
		}
		st.count++
		st.bytesMoved += int64(j.TotalBytes())
	}
	last := batch[len(batch)-1]
	st.lastSubmit, st.lastID = last.SubmitTime, last.ID

	fp := st.hasher.Sum()
	var frozen *core.Partial
	if st.live != nil {
		st.live.Freeze()
		frozen, err = st.live.Clone()
		if err != nil {
			s.dropAppendSession(name, st)
			return TraceInfo{}, "", fmt.Errorf("server: refreezing aggregate for %q: %w", name, err)
		}
	}
	info := TraceInfo{
		Name:        name,
		Fingerprint: fp,
		Workload:    st.meta.Name,
		Machines:    st.meta.Machines,
		LengthMS:    st.meta.Length.Milliseconds(),
		Jobs:        st.count,
		BytesMoved:  st.bytesMoved,
	}

	// Durability outside the store lock (fsync of segment + snapshot),
	// exactly like put; only the atomic manifest commit and the entry
	// swap happen inside it.
	var sealed *storage.Sealed
	if st.appender != nil {
		sealed, err = st.appender.Seal(fp, frozen)
		if err != nil {
			s.dropAppendSession(name, st)
			return TraceInfo{}, "", fmt.Errorf("server: sealing append to %q: %w", name, err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if st.stale.Load() {
		// Lost the race with a replacement between write and commit: the
		// replacement already owns the name (and, on disk, a newer
		// generation). The batch's staged bytes are uncommitted tail;
		// nothing to undo.
		return TraceInfo{}, "", errSessionStale
	}
	if err := s.admitAppendLocked(name, len(batch)); err != nil {
		// The session's state already includes this batch (hashed,
		// observed); it cannot be unwound, so the session is abandoned.
		s.invalidateAppendLocked(name)
		return TraceInfo{}, "", err
	}
	var prevFP string
	if old, ok := s.entries[name]; ok {
		prevFP = old.info.Fingerprint
	}
	e := &entry{info: info, partial: frozen}
	if st.appender != nil {
		stored, err := st.appender.Commit(sealed)
		if err != nil {
			s.invalidateAppendLocked(name)
			return TraceInfo{}, "", fmt.Errorf("server: committing append to %q: %w", name, err)
		}
		e.stored = stored
	} else {
		t := trace.New(st.meta)
		t.Jobs = st.jobs[:len(st.jobs)]
		e.t = t
	}
	s.installLocked(name, e)
	s.appends++
	st.lastBatch.Store(time.Now().UnixNano())
	return info, prevFP, nil
}

// countAppendRejected bumps the append failure counter.
func (s *Store) countAppendRejected() {
	s.mu.Lock()
	s.appendRejected++
	s.mu.Unlock()
}

// precheckAppend samples the admission bounds for an append of n jobs
// to name (advisory; the commit re-checks under the write lock).
func (s *Store) precheckAppend(name string, n int) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.admitAppendLocked(name, n)
}

// admitAppendLocked checks the admission bounds for growing name by n
// jobs: the trace-count cap when the batch creates the name, and —
// memory-only — the job budget (appends grow the trace in place, so
// nothing is freed). Callers hold mu (either mode).
func (s *Store) admitAppendLocked(name string, n int) error {
	if _, ok := s.entries[name]; !ok && len(s.entries) >= s.maxTraces {
		return fmt.Errorf("%w: %d traces (max %d)", ErrStoreFull, len(s.entries), s.maxTraces)
	}
	if s.backing == nil {
		if newTotal := s.residentJobs + n; newTotal > s.maxTotalJobs {
			return fmt.Errorf("%w: %d total jobs would exceed max %d", ErrStoreFull, newTotal, s.maxTotalJobs)
		}
	}
	return nil
}

// appendSession resolves name's live session, opening one from the
// committed state if needed. Opening replays the committed jobs through
// a fresh hasher (and, when the frozen aggregate cannot be adopted,
// through a fresh aggregate) — O(committed jobs) once per session, so
// steady-state batches stay O(batch).
func (s *Store) appendSession(name string, batchMeta trace.Meta) (*appendState, error) {
	s.mu.RLock()
	st, ok := s.appendStates[name]
	s.mu.RUnlock()
	if ok {
		return st, nil
	}
	// Session opening is serialized store-wide: it is rare (once per
	// name per process) and the replay must not run twice for one name.
	s.appendOpenMu.Lock()
	defer s.appendOpenMu.Unlock()
	s.mu.RLock()
	st, ok = s.appendStates[name]
	s.mu.RUnlock()
	if ok {
		return st, nil
	}
	st, err := s.openAppendSession(name, batchMeta)
	if err != nil && errors.Is(err, fs.ErrNotExist) {
		// The replay was reading a generation a background compaction
		// swept mid-open. The fresh view serves the packed replacement,
		// whose replay hashes to the same committed identity.
		st, err = s.openAppendSession(name, batchMeta)
	}
	if err != nil {
		return nil, err
	}
	st.lastBatch.Store(time.Now().UnixNano())
	s.mu.Lock()
	s.appendStates[name] = st
	s.mu.Unlock()
	return st, nil
}

// openAppendSession builds a session from the trace's committed state
// (or fresh, for a new name).
func (s *Store) openAppendSession(name string, batchMeta trace.Meta) (*appendState, error) {
	v, err := s.View(name)
	fresh := errors.Is(err, ErrNotFound)
	if err != nil && !fresh {
		return nil, err
	}

	meta := batchMeta
	if fresh {
		if meta.Name == "" {
			meta.Name = name // mirrors normalize
		}
		if meta.Start.IsZero() || meta.Length <= 0 {
			return nil, badReq("append to a new trace requires complete metadata (start and length_ms declare the window the trace will cover)")
		}
	} else {
		committed := trace.Meta{
			Name:     v.Info.Workload,
			Machines: v.Info.Machines,
			Length:   time.Duration(v.Info.LengthMS) * time.Millisecond,
		}
		if v.Trace != nil {
			committed.Start = v.Trace.Meta.Start
			committed.Length = v.Trace.Meta.Length
		} else if v.Stored != nil {
			committed = v.Stored.Meta()
		}
		if err := checkBatchMeta(batchMeta, committed); err != nil {
			return nil, err
		}
		meta = committed
	}

	st := &appendState{meta: meta, hasher: trace.NewHasher()}
	if err := st.hasher.Begin(meta); err != nil {
		return nil, err
	}
	st.live, _ = core.NewPartial(meta, false) // best-effort, like put

	if s.backing != nil {
		appender, _, err := s.backing.OpenAppend(name, meta)
		if err != nil {
			return nil, fmt.Errorf("server: opening %q for append: %w", name, err)
		}
		st.appender = appender
	}
	if fresh {
		return st, nil
	}

	// Adopt the committed frozen aggregate when it demonstrably covers
	// the committed jobs in the mode the session needs — the replay then
	// only hashes. Otherwise the replay rebuilds the aggregate too.
	adopted := false
	if st.live != nil && v.Partial != nil && !v.Partial.Sketch() &&
		v.Partial.Jobs() == v.Info.Jobs && v.Partial.Meta() == meta {
		clone, err := v.Partial.Clone()
		if err == nil {
			st.live = clone
			adopted = true
		}
	}

	var src trace.Source
	if v.Trace != nil {
		src = trace.NewSliceSource(v.Trace)
		if s.backing == nil {
			st.jobs = append(make([]*trace.Job, 0, v.Trace.Len()+1024), v.Trace.Jobs...)
		}
	} else {
		src, err = v.Stored.Open()
		if err != nil {
			st.close()
			return nil, err
		}
	}
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if cl, ok := src.(io.Closer); ok {
				cl.Close()
			}
			st.close()
			return nil, fmt.Errorf("server: replaying %q for append: %w", name, err)
		}
		if err := st.hasher.Write(j); err != nil {
			if cl, ok := src.(io.Closer); ok {
				cl.Close()
			}
			st.close()
			return nil, err
		}
		if st.live != nil && !adopted {
			st.live.Observe(j)
		}
		st.count++
		st.bytesMoved += int64(j.TotalBytes())
		st.lastSubmit, st.lastID = j.SubmitTime, j.ID
	}
	if st.count != v.Info.Jobs || st.hasher.Sum() != v.Info.Fingerprint {
		// The replay must reproduce the committed identity exactly or the
		// appended fingerprints would silently diverge from re-uploads.
		st.close()
		return nil, fmt.Errorf("server: replaying %q for append: state diverges from committed identity", name)
	}
	return st, nil
}

// close releases a half-open session's resources.
func (st *appendState) close() {
	if st.appender != nil {
		st.appender.Close()
		st.appender = nil
	}
}

// checkBatchMeta verifies a batch's declared header against the
// session metadata: omitted fields pass, contradicting ones conflict
// (the header is hashed first and cannot change once appends began).
func checkBatchMeta(batch, session trace.Meta) error {
	if batch.Name != "" && batch.Name != session.Name {
		return fmt.Errorf("%w: batch header name %q vs committed %q", ErrAppendConflict, batch.Name, session.Name)
	}
	if batch.Machines != 0 && batch.Machines != session.Machines {
		return fmt.Errorf("%w: batch header machines %d vs committed %d", ErrAppendConflict, batch.Machines, session.Machines)
	}
	if !batch.Start.IsZero() && !batch.Start.Equal(session.Start) {
		return fmt.Errorf("%w: batch header start %s vs committed %s", ErrAppendConflict,
			batch.Start.Format(time.RFC3339Nano), session.Start.Format(time.RFC3339Nano))
	}
	if batch.Length > 0 && batch.Length != session.Length {
		return fmt.Errorf("%w: batch header length %s vs committed %s", ErrAppendConflict, batch.Length, session.Length)
	}
	return nil
}
