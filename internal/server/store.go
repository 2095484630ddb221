// Package server is the serving layer: a long-running HTTP/JSON service
// that owns named workload traces in a hybrid memory/disk store and
// answers the study's analytics interactively — the "interactive
// analytical processing" usage mode the paper argues MapReduce clusters
// evolved into, applied to the analysis pipeline itself. Reports,
// synthesis, and replay results are memoized in a single-flight result
// cache keyed by content fingerprint, the ReStore-style discipline of
// persisting prior results instead of recomputing per request.
package server

import (
	"container/list"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/trace"
)

// ErrStoreFull is returned when an ingest would exceed the store's
// configured memory bounds (trace count, or total job count in a store
// with no disk backing to spill to).
var ErrStoreFull = errors.New("server: trace store full")

// ErrNotFound is returned for operations on unknown trace names.
var ErrNotFound = errors.New("server: no such trace")

// errReplaced fails a read through a stale view of a re-uploaded name
// (409, naming the current fingerprint).
var errReplaced = errors.New("server: trace was replaced during the read")

// ErrTooLarge is returned when a request needs a disk-resident trace
// materialized in memory (full reports, synthesis, replay) but the
// trace alone exceeds the in-memory job budget; such traces are served
// by the out-of-core streaming analyses only.
var ErrTooLarge = errors.New("server: trace exceeds the in-memory budget")

// TraceInfo is the stored identity of one trace: the name it is served
// under, its content fingerprint, and its Table-1 summary.
type TraceInfo struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Workload    string `json:"workload"`
	Machines    int    `json:"machines,omitempty"`
	LengthMS    int64  `json:"length_ms"`
	Jobs        int    `json:"jobs"`
	BytesMoved  int64  `json:"bytes_moved"`
	// Cluster marks a distributed trace served by scatter/gather;
	// Shards is its shard count (both zero-valued for local traces).
	Cluster bool `json:"cluster,omitempty"`
	Shards  int  `json:"shards,omitempty"`
}

// entry pairs an immutable trace snapshot with its identity. The *Trace
// (and every Job it points to) is never mutated after insertion, which
// is what makes lock-free reads of a snapshot safe: writers swap whole
// entries under the write lock, so a reader holding a snapshot keeps
// analyzing exactly the version it resolved, untouched by concurrent
// re-ingests of the same name.
//
// In a disk-backed store an entry has two tiers: stored is the durable
// generation on disk (always present), t is the in-memory hot copy
// (nil when the entry has been spilled or evicted — reads then stream
// from the segments). In a memory-only store t is always present and
// stored is nil.
type entry struct {
	t    *trace.Trace
	info TraceInfo
	// partial is the frozen aggregate: an exact-mode core.Partial
	// observed at ingest (or decoded from the on-disk snapshot at
	// recovery) and frozen before insertion, so a cold report finalizes
	// precomputed, already sorted section aggregates instead of
	// re-reading every job. Never mutated after insertion —
	// Partial.Report is read-only — and nil when the trace cannot be
	// binned (shorter than two hours) or its persisted snapshot was
	// unreadable at recovery. Costs ~24 B per job of heap.
	partial *core.Partial
	// recovered marks a partial decoded from a persisted snapshot
	// rather than built by this process — surfaced in the X-Analysis
	// header so restart round-trips are observable.
	recovered bool
	// stored is the committed on-disk generation (nil without backing).
	stored *storage.Trace
	// elem is the entry's position in the residency LRU while t != nil.
	elem *list.Element
}

// Store is the concurrent trace store. Without disk backing it is
// memory-only and memory is bounded by two knobs — the number of named
// traces and the total job count across them — with ingests beyond the
// bounds rejected (ErrStoreFull) rather than silently evicting data a
// client may be querying.
//
// With backing attached the job-count knob bounds only the in-memory
// hot tier: every trace is written through to disk, uploads that
// exceed the remaining hot budget spill to disk instead of being
// rejected, and hot-tier overflow evicts the least-recently-used
// resident copy (the segments remain, so eviction costs a reload, not
// data). DELETE garbage-collects the on-disk segments.
//
// Every write (write.go) streams through a session outside the lock;
// the write lock covers only publish's admit, commit and entry swap.
// This file holds admission, residency and the read side.
type Store struct {
	mu sync.RWMutex
	// lruMu serializes recency touches from concurrent readers. Reads
	// resolve entries under mu.RLock for concurrency; the only mutation
	// they perform is a MoveToFront, guarded here. Structural list
	// changes (push, remove, evict) happen under mu's write lock, which
	// excludes all readers, and take lruMu too so the two never
	// interleave. Lock order: mu before lruMu.
	lruMu        sync.Mutex
	entries      map[string]*entry
	lru          *list.List // resident entries; front = most recently used
	residentJobs int
	maxTraces    int
	maxTotalJobs int
	backing      *storage.Store

	// appendStates holds the live append session per trace name (see
	// append.go). Map membership changes under mu; each session's write
	// path serializes on its own mutex. appendOpenMu serializes session
	// *opening* store-wide — opening replays the committed jobs, and that
	// replay must not run twice for one name.
	appendStates map[string]*appendState
	appendOpenMu sync.Mutex

	ingests        uint64
	rejected       uint64
	appends        uint64
	appendRejected uint64
	spills         uint64
	evictions      uint64
	reloads        uint64
	compactions    uint64
	segmentsMerged uint64
	blocksRefilled uint64
}

// DefaultMaxTraces and DefaultMaxTotalJobs bound the store when the
// configuration leaves them zero. 2M jobs ≈ the two Facebook traces
// together; at ~200 B/job that is a few hundred MB of heap.
const (
	DefaultMaxTraces    = 64
	DefaultMaxTotalJobs = 2_000_000
)

// NewStore creates a memory-only store with the given bounds (zero:
// defaults). Attach disk backing with AttachBacking before serving.
func NewStore(maxTraces, maxTotalJobs int) *Store {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	if maxTotalJobs <= 0 {
		maxTotalJobs = DefaultMaxTotalJobs
	}
	return &Store{
		entries:      make(map[string]*entry),
		lru:          list.New(),
		appendStates: make(map[string]*appendState),
		maxTraces:    maxTraces,
		maxTotalJobs: maxTotalJobs,
	}
}

// AttachBacking wires a durable storage engine under the store and
// registers its recovered traces as disk-resident entries, loading each
// one's persisted partial aggregate (its checkpoint plus the jobs
// appended after it) so the first cold report after a restart finalizes
// on-disk state instead of rescanning jobs. A trace whose snapshot
// cannot be loaded serves disk scans. Call before the store starts
// serving.
func (s *Store) AttachBacking(b *storage.Store, recovered []*storage.Trace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.backing = b
	for _, st := range recovered {
		e := &entry{stored: st, info: storedInfo(st)}
		if p, err := st.LoadPartial(); err == nil && p != nil {
			// Snapshots written before partials were frozen at publish
			// hold unsorted columns: sort them once, here.
			p.Freeze()
			e.partial = p
			e.recovered = true
		}
		s.entries[st.Name()] = e
	}
}

// storedInfo describes a committed generation from its manifest.
func storedInfo(st *storage.Trace) TraceInfo {
	meta := st.Meta()
	return TraceInfo{
		Name:        st.Name(),
		Fingerprint: st.Fingerprint(),
		Workload:    meta.Name,
		Machines:    meta.Machines,
		LengthMS:    meta.Length.Milliseconds(),
		Jobs:        st.Jobs(),
		BytesMoved:  st.BytesMoved(),
	}
}

// normalize sorts the trace, derives missing metadata from the job span
// (uploads may carry a zero Start/Length header), and validates every
// record. The trace must not be shared with any other writer.
func normalize(name string, t *trace.Trace) error {
	if t.Len() == 0 {
		return fmt.Errorf("server: trace %q is empty", name)
	}
	t.Sort()
	if t.Meta.Name == "" {
		t.Meta.Name = name
	}
	t.Meta.FillFromSpan(t.Span())
	if err := checkSpan(t.Meta); err != nil {
		return err
	}
	return t.Validate()
}

// Put inserts (or replaces) the trace under name. The caller hands over
// ownership: the store normalizes the trace in place, fingerprints it,
// and from then on treats it as immutable. Returns the stored identity.
func (s *Store) Put(name string, t *trace.Trace) (TraceInfo, error) {
	info, err := s.put(name, t, nil)
	return info, s.reject(&s.rejected, err)
}

// put is Put with an optional partial aggregate observed during a
// streaming ingest. The partial is adopted only if it demonstrably
// covers this exact trace (same metadata, same job count); otherwise —
// and for every non-ingest Put, e.g. preloads and stored syntheses — a
// fresh aggregate is built here, shard-parallel across the CPUs, so
// every stored trace carries one. Partial construction is best-effort:
// a trace too short for hourly binning stores with a nil partial and
// reports fall back to scanning. One session then fingerprints the
// jobs, and publish writes (with backing) and commits them.
func (s *Store) put(name string, t *trace.Trace, p *core.Partial) (TraceInfo, error) {
	if name == "" {
		return TraceInfo{}, fmt.Errorf("server: empty trace name")
	}
	if err := normalize(name, t); err != nil {
		return TraceInfo{}, err
	}
	// Cheap non-authoritative admission check before the expensive work
	// (partial aggregation, fingerprint, disk writes): a store that is
	// already full must not burn a multi-core analysis scan per rejected
	// upload. publish re-checks authoritatively under the write lock.
	if err := s.precheck(name, t.Len()); err != nil {
		return TraceInfo{}, err
	}
	if p != nil && (p.Sketch() || p.Jobs() != t.Len() || p.Meta() != t.Meta) {
		p = nil
	}
	if p == nil {
		p, _ = core.BuildTracePartial(t, 0, false)
	}
	ss, err := s.create(name, t.Meta)
	if err != nil {
		return TraceInfo{}, err
	}
	defer ss.close()
	if err := ss.begin(t.Meta, false); err != nil {
		return TraceInfo{}, err
	}
	ss.hot = t
	for _, j := range t.Jobs {
		if err := ss.fold(j); err != nil {
			return TraceInfo{}, err
		}
	}
	info, _, err := s.publish(name, ss, p, nil)
	return info, err
}

// admitLocked re-checks the admission bounds under the write lock for a
// resident insert of jobs under name. With backing, only the trace
// count can reject — job overflow evicts instead.
func (s *Store) admitLocked(name string, jobs int) error {
	old, replacing := s.entries[name]
	if !replacing && len(s.entries) >= s.maxTraces {
		return fmt.Errorf("%w: %d traces (max %d)", ErrStoreFull, len(s.entries), s.maxTraces)
	}
	if s.backing == nil {
		oldJobs := 0
		if replacing {
			oldJobs = old.info.Jobs
		}
		if newTotal := s.residentJobs - oldJobs + jobs; newTotal > s.maxTotalJobs {
			return fmt.Errorf("%w: %d total jobs would exceed max %d", ErrStoreFull, newTotal, s.maxTotalJobs)
		}
	}
	return nil
}

// installLocked replaces name's entry with e, maintaining the residency
// accounting and LRU, and (with backing) evicting least-recently-used
// resident copies until the hot tier fits its budget again.
func (s *Store) installLocked(name string, e *entry) {
	if old, ok := s.entries[name]; ok {
		s.dropResidencyLocked(old)
	}
	s.entries[name] = e
	if e.t != nil {
		s.residentJobs += e.info.Jobs
		s.lruMu.Lock()
		e.elem = s.lru.PushFront(e)
		s.lruMu.Unlock()
	}
	if s.backing != nil {
		s.evictToFitLocked()
	}
}

// dropResidencyLocked removes an entry's hot copy from the accounting
// (the entry itself stays wherever it is referenced).
func (s *Store) dropResidencyLocked(e *entry) {
	if e.t == nil {
		return
	}
	s.residentJobs -= e.info.Jobs
	s.lruMu.Lock()
	if e.elem != nil {
		s.lru.Remove(e.elem)
		e.elem = nil
	}
	s.lruMu.Unlock()
	e.t = nil
}

// evictToFitLocked sheds least-recently-used hot copies until the
// resident tier fits the job budget. Eviction spills nothing — every
// entry with a hot copy already has its segments on disk — it only
// drops the in-memory jobs.
func (s *Store) evictToFitLocked() {
	for s.residentJobs > s.maxTotalJobs {
		s.lruMu.Lock()
		back := s.lru.Back()
		s.lruMu.Unlock()
		if back == nil {
			return
		}
		s.dropResidencyLocked(back.Value.(*entry))
		s.evictions++
	}
}

// touch marks a resident entry recently used. Callers hold mu (either
// mode); lruMu serializes the list move against concurrent readers.
func (s *Store) touch(e *entry) {
	s.lruMu.Lock()
	if e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
	s.lruMu.Unlock()
}

// precheck samples the store bounds for a prospective insert of jobs
// under name. It is advisory — concurrent writers can invalidate it —
// so publish re-checks under the write lock; its job is to fail clearly
// doomed writes before the expensive aggregation, hashing and fsyncs.
func (s *Store) precheck(name string, jobs int) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.admitLocked(name, jobs)
}

// RemainingBudget reports how many more jobs the hot tier could accept
// under name right now, counting the resident copy that name currently
// holds as freed (a Put replaces it). It is a point-in-time sample:
// writers that buffer against it must still expect the authoritative
// re-check at install time.
func (s *Store) RemainingBudget(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	budget := s.maxTotalJobs - s.residentJobs
	if e, ok := s.entries[name]; ok && e.t != nil {
		budget += e.info.Jobs
	}
	return budget
}

// View is one consistent read of an entry: identity, the hot copy (nil
// when the trace lives only on disk), the frozen partial aggregate, and
// the durable handle. Trace and partial come from one entry: a
// concurrent re-ingest of the name cannot pair this trace with another
// upload's aggregate.
type View struct {
	Trace *trace.Trace
	Info  TraceInfo
	// Partial is the frozen aggregate (nil when unavailable).
	Partial *core.Partial
	// Recovered marks a partial decoded from the on-disk snapshot at
	// startup rather than built by this process.
	Recovered bool
	// Stored is the durable generation (nil in memory-only stores).
	Stored *storage.Trace
}

// View resolves name. Resident entries of a disk-backed store are
// marked recently used; reads stay on the shared lock so concurrent
// report traffic never serializes on the store.
func (s *Store) View(name string) (View, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[name]
	if !ok {
		return View{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if e.t != nil && s.backing != nil {
		s.touch(e)
	}
	return View{Trace: e.t, Info: e.info, Partial: e.partial, Recovered: e.recovered, Stored: e.stored}, nil
}

// spanStart is where the view's trace span begins, read from the
// resident copy or, for a disk-resident trace, the durable generation.
func (v View) spanStart() time.Time {
	if v.Trace != nil {
		return v.Trace.Meta.Start
	}
	return v.Stored.Meta().Start
}

// Get resolves name to an immutable in-memory snapshot, reloading a
// disk-resident trace into the hot tier if needed (evicting colder
// residents to make room). It fails with ErrTooLarge when the trace
// alone exceeds the hot tier's job budget — such traces are served by
// the out-of-core paths only. The returned trace must not be mutated.
func (s *Store) Get(name string) (*trace.Trace, TraceInfo, error) {
	v, err := s.View(name)
	if err != nil {
		return nil, TraceInfo{}, err
	}
	return s.load(v)
}

// load is Get for a resolved view.
func (s *Store) load(v View) (*trace.Trace, TraceInfo, error) {
	name := v.Info.Name
	if v.Trace != nil {
		return v.Trace, v.Info, nil
	}
	if v.Info.Jobs > s.maxTotalJobs {
		return nil, TraceInfo{}, fmt.Errorf("%w: %q holds %d jobs, budget is %d",
			ErrTooLarge, name, v.Info.Jobs, s.maxTotalJobs)
	}
	// Load outside the lock; admit under it. A concurrent re-ingest may
	// have replaced the entry meanwhile — then the load is discarded.
	var tr *trace.Trace
	err := s.readStored(v, func(st *storage.Trace) (err error) {
		tr, err = st.Collect()
		return err
	})
	if err != nil {
		return nil, TraceInfo{}, fmt.Errorf("server: reloading %q: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[name]
	if !ok {
		return nil, TraceInfo{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if e.info.Fingerprint != v.Info.Fingerprint {
		// Replaced while loading; serve the loaded snapshot we have (it
		// is a consistent version) without installing it.
		return tr, v.Info, nil
	}
	if e.t == nil {
		e.t = tr
		s.residentJobs += e.info.Jobs
		// Structural list change: documented lock protocol is mu's write
		// lock AND lruMu (mirroring installLocked), so a reader-side
		// MoveToFront under RLock can never interleave with the push.
		s.lruMu.Lock()
		e.elem = s.lru.PushFront(e)
		s.lruMu.Unlock()
		s.reloads++
		s.evictToFitLocked()
	}
	return e.t, e.info, nil
}

// readStored runs read over v's durable generation and, when a
// background compaction swept that generation's files out from under it
// (committed files are unlinked, never rewritten, so a read that opened
// its descriptors early is safe, but one racing the sweep can hit a
// vanished path), once more over a fresh view of the name. The retry
// is sound because compaction preserves the fingerprint: a generation
// with the same fingerprint reads the same jobs; a deleted or replaced
// name fails with ErrNotFound or errReplaced.
func (s *Store) readStored(v View, read func(*storage.Trace) error) error {
	err := read(v.Stored)
	if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	nv, verr := s.View(v.Info.Name)
	switch {
	case verr != nil:
		return verr
	case nv.Info.Fingerprint != v.Info.Fingerprint:
		return fmt.Errorf("%w: %q is now %s", errReplaced, v.Info.Name, nv.Info.Fingerprint)
	case nv.Stored != nil:
		return read(nv.Stored)
	}
	return err
}

// Delete removes name, reporting the deleted identity and whether the
// trace existed — the identity is what lets the caller invalidate
// fingerprint-keyed caches. With backing, the on-disk segments are
// garbage-collected under the same lock that orders commits, so a
// concurrent re-ingest of the name either commits before the delete
// (and is deleted with it) or after it (and survives) — the directory
// can never be removed out from under an entry the store still serves.
// The removal itself is best-effort: the in-memory removal wins even if
// the directory removal fails (a restart would then resurrect the
// trace, which is the safe direction).
func (s *Store) Delete(name string) (TraceInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[name]
	if !ok {
		return TraceInfo{}, false
	}
	s.dropResidencyLocked(e)
	delete(s.entries, name)
	s.invalidateAppendLocked(name)
	if s.backing != nil && e.stored != nil {
		_ = s.backing.Delete(name)
	}
	return e.info, true
}

// HasFingerprint reports whether any stored trace currently has the
// given content fingerprint (two names may hold identical content; the
// caller must not invalidate shared fingerprint-keyed results while one
// holder remains).
func (s *Store) HasFingerprint(fp string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range s.entries {
		if e.info.Fingerprint == fp {
			return true
		}
	}
	return false
}

// List returns the identities of every stored trace, sorted by name.
func (s *Store) List() []TraceInfo {
	s.mu.RLock()
	out := make([]TraceInfo, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e.info)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// TraceStorage is one stored trace's on-disk shape, the /v1/stats
// storage section: segment and colseg block counts, committed bytes,
// and whether a hot in-memory copy is resident.
type TraceStorage struct {
	Name     string
	Jobs     int
	Segments int
	Blocks   int
	Bytes    int64
	Resident bool
}

// StorageGauges snapshots every stored trace's storage shape, sorted
// by name. Traces without disk backing report zero segments/bytes but
// still appear (their job count and residency are real).
func (s *Store) StorageGauges() []TraceStorage {
	s.mu.RLock()
	out := make([]TraceStorage, 0, len(s.entries))
	for name, e := range s.entries {
		ts := TraceStorage{Name: name, Jobs: e.info.Jobs, Resident: e.t != nil}
		if e.stored != nil {
			ts.Segments = e.stored.Segments()
			ts.Blocks = e.stored.Blocks()
			ts.Bytes = e.stored.SizeBytes()
		}
		out = append(out, ts)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// StoreStats is the store's occupancy and lifetime counters. TotalJobs
// counts jobs across every stored trace; ResidentJobs counts the hot
// tier only (they differ once traces spill or evict to disk). Partials
// counts traces carrying a frozen aggregate; DiskTraces and DiskBytes
// describe the durable tier.
type StoreStats struct {
	Traces       int    `json:"traces"`
	TotalJobs    int    `json:"total_jobs"`
	ResidentJobs int    `json:"resident_jobs"`
	Partials     int    `json:"partials"`
	MaxTraces    int    `json:"max_traces"`
	MaxTotalJobs int    `json:"max_total_jobs"`
	Ingests      uint64 `json:"ingests"`
	Rejected     uint64 `json:"rejected"`
	// Appends counts committed append batches; AppendRejected every
	// append batch that did not commit (bad input, conflicts, budget).
	Appends        uint64 `json:"appends,omitempty"`
	AppendRejected uint64 `json:"append_rejected,omitempty"`
	DiskTraces     int    `json:"disk_traces,omitempty"`
	DiskBytes      int64  `json:"disk_bytes,omitempty"`
	Spills         uint64 `json:"spills,omitempty"`
	Evictions      uint64 `json:"evictions,omitempty"`
	Reloads        uint64 `json:"reloads,omitempty"`
	// Compactions counts committed background rewrites; SegmentsMerged
	// and BlocksRefilled how many segment files and undersized colseg
	// blocks those rewrites eliminated.
	Compactions    uint64 `json:"compactions,omitempty"`
	SegmentsMerged uint64 `json:"segments_merged,omitempty"`
	BlocksRefilled uint64 `json:"blocks_refilled,omitempty"`
}

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := StoreStats{
		Traces:         len(s.entries),
		ResidentJobs:   s.residentJobs,
		MaxTraces:      s.maxTraces,
		MaxTotalJobs:   s.maxTotalJobs,
		Ingests:        s.ingests,
		Rejected:       s.rejected,
		Appends:        s.appends,
		AppendRejected: s.appendRejected,
		Spills:         s.spills,
		Evictions:      s.evictions,
		Reloads:        s.reloads,
		Compactions:    s.compactions,
		SegmentsMerged: s.segmentsMerged,
		BlocksRefilled: s.blocksRefilled,
	}
	for _, e := range s.entries {
		st.TotalJobs += e.info.Jobs
		if e.partial != nil {
			st.Partials++
		}
		if e.stored != nil {
			st.DiskTraces++
			st.DiskBytes += e.stored.SizeBytes()
		}
	}
	return st
}
