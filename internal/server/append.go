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
	"repro/internal/trace"
)

// The live-ingest path: batched appends into an open trace. An append
// session is the upload's writer kept open: the same session (write.go)
// folds every batch, and the same publish commits it, once per batch
// instead of once per upload. Every committed batch is therefore a full
// store state — fingerprint, frozen partial aggregate, durable segments
// — byte-identical to what a one-shot upload of the same prefix would
// have produced, so readers never see an "appending" trace as anything
// but a normal (shorter) trace.
//
// What makes a batch cost O(batch log N), not O(trace), is that the
// session stays open between batches:
//   - the fingerprint extends its running trace.Hasher (the canonical
//     JSONL hash is a stream hash, so in-order appends extend it);
//   - the aggregate extends its private mutable core.Partial; each
//     commit refreezes it (the batch's samples become a new immutable
//     sorted run) and publishes a clone that shares those runs and
//     copies only the hourly and name sections (append-and-refreeze:
//     published partials stay frozen, as the entry contract requires);
//   - the segments extend storage's open append generation, with the
//     manifest commit per batch as the durability point; the partial
//     snapshot is rewritten only at checkpoints, and recovery replays
//     the jobs committed after the last one.
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

// appendState is one trace's live append session: the open write
// session plus what keeps it alive between batches. Batches serialize
// on mu; the store's write lock is taken only inside publish. stale is
// set (under the store's write lock) when a Put, spill, or Delete
// replaces the trace out from under the session — the session is then
// abandoned and the next append reopens from the new committed state.
// Memory-mode sessions keep every job in the resident copy, and each
// committed batch publishes its own trace header over a prefix of them.
type appendState struct {
	session
	mu    sync.Mutex
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
	st.close()
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
// unusable (a batch folded but not committed: a write, seal, admission
// or commit error): it is detached from the map unless a replacement
// session already took the slot, and its descriptor closed.
func (s *Store) dropAppendSession(name string, st *appendState) {
	s.mu.Lock()
	if cur, ok := s.appendStates[name]; ok && cur == st {
		delete(s.appendStates, name)
	}
	s.mu.Unlock()
	st.stale.Store(true)
	st.close()
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
		return TraceInfo{}, 0, "", s.reject(&s.appendRejected, err)
	}

	// A replaced-under-us session retries against the new committed
	// state; bound the retries so a pathological replace loop cannot
	// spin forever.
	for attempt := 0; ; attempt++ {
		info, prevFP, err := s.appendBatch(name, src.Meta(), batch)
		if errors.Is(err, errSessionStale) && attempt < 3 {
			continue
		}
		if err != nil {
			return TraceInfo{}, 0, "", s.reject(&s.appendRejected, err)
		}
		return info, len(batch), prevFP, nil
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

// appendBatch runs one attempt: resolve (or open) the session, fold
// the batch through it, and publish the new state.
func (s *Store) appendBatch(name string, batchMeta trace.Meta, batch []*trace.Job) (info TraceInfo, prevFP string, err error) {
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
	if st.count > 0 && st.precedes(batch[0]) {
		return TraceInfo{}, "", errAppendOrder(batch[0], st.lastSubmit, st.lastID)
	}
	// Sample the admission bounds before the expensive work; publish
	// re-checks authoritatively under the write lock.
	if err := s.precheck(name, st.count+len(batch)); err != nil {
		return TraceInfo{}, "", err
	}
	defer func() {
		if err != nil && !errors.Is(err, errSessionStale) {
			// The session already holds the batch (written, hashed,
			// observed); it cannot be unwound, so it is abandoned.
			s.dropAppendSession(name, st)
		}
	}()

	if st.hot != nil {
		// The published prefix keeps its header; the next batch grows a
		// new one over the same jobs.
		st.hot = &trace.Trace{Meta: st.meta, Jobs: st.hot.Jobs}
	}
	for _, j := range batch {
		if err := st.add(j); err != nil {
			return TraceInfo{}, "", fmt.Errorf("server: appending to %q: %w", name, err)
		}
	}
	var frozen *core.Partial
	if live := st.folded(); live != nil {
		live.Freeze()
		if frozen, err = live.Clone(); err != nil {
			return TraceInfo{}, "", fmt.Errorf("server: refreezing aggregate for %q: %w", name, err)
		}
	}
	if info, prevFP, err = s.publish(name, &st.session, frozen, st); err == nil {
		st.lastBatch.Store(time.Now().UnixNano())
	}
	return info, prevFP, err
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
		if err := checkSpan(meta); err != nil {
			return nil, err
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

	// Adopt the committed frozen aggregate when it demonstrably covers
	// the committed jobs in the mode the session needs — the replay then
	// only hashes. Otherwise the replay rebuilds the aggregate too.
	adopt := !fresh && v.Partial != nil && !v.Partial.Sketch() &&
		v.Partial.Jobs() == v.Info.Jobs && v.Partial.Meta() == meta
	st := &appendState{}
	if err := st.begin(meta, !adopt); err != nil {
		return nil, err
	}
	if s.backing != nil {
		if st.appender, _, err = s.backing.OpenAppend(name, meta); err != nil {
			return nil, fmt.Errorf("server: opening %q for append: %w", name, err)
		}
	} else {
		st.hot = trace.New(meta)
	}
	if fresh {
		return st, nil
	}

	if v.Trace != nil {
		for _, j := range v.Trace.Jobs {
			if err = st.fold(j); err != nil {
				break
			}
		}
		if st.hot != nil {
			st.hot.Jobs = append(make([]*trace.Job, 0, v.Trace.Len()+1024), v.Trace.Jobs...)
		}
	} else {
		err = v.Stored.Each(st.fold)
	}
	if err == nil && (st.count != v.Info.Jobs || st.hasher.Sum() != v.Info.Fingerprint) {
		// The replay must reproduce the committed identity exactly or the
		// appended fingerprints would silently diverge from re-uploads.
		err = errors.New("state diverges from committed identity")
	}
	if err == nil && adopt {
		st.live, err = v.Partial.Clone()
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("server: replaying %q for append: %w", name, err)
	}
	return st, nil
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
