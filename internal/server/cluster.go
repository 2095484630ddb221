package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/trace"
)

// The scatter/gather coordinator: the protocol the serving layer runs
// on top of the fleet's placement/transport/liveness mechanics.
//
// A distributed trace never exists whole on any node. Ingest splits
// the upload into contiguous ordered shards (the same deterministic
// partition the shard-parallel analyzer uses), places each shard on R
// consistent-hash owners as an ordinary local trace under a reserved
// ".fleet/<name>/<i>" name, and registers a small metadata document —
// span, job count, fingerprint, shard count, and the serialized
// fingerprint-hasher state — on every member.
//
// A report against any node scatters to one live owner per shard; each
// owner resolves its local frozen core.Partial (reusing the single-node
// partial machinery: the stored frozen partial, or a scan of the shard)
// and returns the versioned binary snapshot as the wire format, unless
// the owner is the coordinator itself. The coordinator merges the
// partials in shard index order into a fresh one, which by the merge
// contract makes the response byte-identical to a single-node analysis
// of the whole trace. Missing shards (every replica down)
// degrade the answer instead of failing it: the merged remainder is
// served with X-Analysis: degraded and the missing shard list, and is
// never cached.
//
// The fingerprint needs care: a cluster trace's content fingerprint is
// the hash of its canonical JSONL stream, which is not a function of
// the shard fingerprints (the header line is hashed once, not per
// shard). The coordinator therefore hashes the stream itself at ingest
// and persists the hasher midstate in the metadata document; the home
// node restores it to extend the fingerprint on each append, so K
// batched cluster appends commit the exact one-shot fingerprint.

// shardPrefix namespaces locally stored shard replicas. The public
// routes match {name} as a single path segment, so these names are
// unreachable from the outside; the list handler hides them.
const shardPrefix = ".fleet/"

// fleetForwardedHeader marks a proxied append so a placement
// disagreement between nodes cannot forward in a loop.
const fleetForwardedHeader = "X-Fleet-Forwarded"

// shardTraceName is the local store name of one shard replica.
func shardTraceName(name string, i int) string {
	return shardPrefix + name + "/" + strconv.Itoa(i)
}

// shardKey is the ring placement key of one shard.
func shardKey(name string, i int) string {
	return name + "/" + strconv.Itoa(i)
}

// shardPath is the peer-protocol URL path of one shard.
func shardPath(name string, i int) string {
	return "/internal/v1/shards/" + url.PathEscape(name) + "/" + strconv.Itoa(i)
}

// clusterMeta is the shard-ownership document every member keeps (and
// persists under the storage engine's cluster/ directory) for one
// distributed trace. Times are unix nanoseconds; the JSONL wire format
// is millisecond-precision, so they round-trip exactly.
type clusterMeta struct {
	Name        string `json:"name"`
	Workload    string `json:"workload"`
	Machines    int    `json:"machines,omitempty"`
	StartNS     int64  `json:"start_ns"`
	LengthMS    int64  `json:"length_ms"`
	Jobs        int    `json:"jobs"`
	BytesMoved  int64  `json:"bytes_moved"`
	Fingerprint string `json:"fingerprint"`
	Shards      int    `json:"shards"`
	Replication int    `json:"replication"`
	// HasherState is the serialized trace.Hasher midstate after the
	// last committed job — what the home node extends on append.
	HasherState []byte `json:"hasher_state,omitempty"`
	// LastSubmitNS/LastID are the committed tail, the append-order
	// fence (the same rule the single-node append session keeps).
	LastSubmitNS int64 `json:"last_submit_ns,omitempty"`
	LastID       int64 `json:"last_id,omitempty"`
}

// traceMeta reconstructs the full trace's metadata header.
func (m clusterMeta) traceMeta() trace.Meta {
	return trace.Meta{
		Name:     m.Workload,
		Machines: m.Machines,
		Start:    time.Unix(0, m.StartNS).UTC(),
		Length:   time.Duration(m.LengthMS) * time.Millisecond,
	}
}

// info is the public identity of the distributed trace.
func (m clusterMeta) info() TraceInfo {
	return TraceInfo{
		Name:        m.Name,
		Fingerprint: m.Fingerprint,
		Workload:    m.Workload,
		Machines:    m.Machines,
		LengthMS:    m.LengthMS,
		Jobs:        m.Jobs,
		BytesMoved:  m.BytesMoved,
		Cluster:     true,
		Shards:      m.Shards,
	}
}

// clusterEntry is one registered distributed trace. appendMu
// serializes appends coordinated by this node (the home node is the
// single writer, so holding it makes order checks race-free); mu
// guards the metadata snapshot, which is replaced wholesale and whose
// byte slices are never mutated in place.
type clusterEntry struct {
	appendMu sync.Mutex
	mu       sync.Mutex
	meta     clusterMeta
}

func (e *clusterEntry) snapshot() clusterMeta {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.meta
}

func (e *clusterEntry) update(m clusterMeta) {
	e.mu.Lock()
	e.meta = m
	e.mu.Unlock()
}

// clusterCoordinator owns the distributed-trace registry and the
// scatter/gather, routing, and cache protocol.
type clusterCoordinator struct {
	srv   *Server
	fleet *fleet.Fleet

	mu     sync.RWMutex
	traces map[string]*clusterEntry
}

func newClusterCoordinator(s *Server, f *fleet.Fleet) *clusterCoordinator {
	return &clusterCoordinator{srv: s, fleet: f, traces: make(map[string]*clusterEntry)}
}

// restore re-registers every distributed trace whose metadata the
// storage engine persisted — the crash-recovery half of the registry.
func (c *clusterCoordinator) restore() error {
	if c.srv.backing == nil {
		return nil
	}
	metas, err := c.srv.backing.LoadClusters()
	if err != nil {
		return err
	}
	for _, cm := range metas {
		var m clusterMeta
		if json.Unmarshal(cm.Doc, &m) != nil || m.Name != cm.Name || m.Shards < 1 {
			continue
		}
		c.traces[m.Name] = &clusterEntry{meta: m}
	}
	return nil
}

// get looks name up in the local registry.
func (c *clusterCoordinator) get(name string) (*clusterEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.traces[name]
	return e, ok
}

// adopt registers (or replaces — last writer wins, appends are
// serialized at the home node so later always means newer) a metadata
// document and persists it.
func (c *clusterCoordinator) adopt(m clusterMeta) *clusterEntry {
	c.mu.Lock()
	e, ok := c.traces[m.Name]
	if !ok {
		e = &clusterEntry{}
		c.traces[m.Name] = e
	}
	c.mu.Unlock()
	e.update(m)
	c.persist(m)
	return e
}

// remove forgets a distributed trace locally (registry + persisted
// document).
func (c *clusterCoordinator) remove(name string) {
	c.mu.Lock()
	delete(c.traces, name)
	c.mu.Unlock()
	if c.srv.backing != nil {
		if err := c.srv.backing.DeleteCluster(name); err != nil {
			c.srv.logger.Warn("cluster: dropping metadata failed", "trace", name, "error", err)
		}
	}
}

// persist writes the metadata document through the storage engine
// (best-effort without backing; a node that restarts without it
// refetches from its peers on demand).
func (c *clusterCoordinator) persist(m clusterMeta) {
	if c.srv.backing == nil {
		return
	}
	doc, err := json.Marshal(m)
	if err == nil {
		err = c.srv.backing.SaveCluster(m.Name, doc)
	}
	if err != nil {
		c.srv.logger.Warn("cluster: persisting metadata failed", "trace", m.Name, "error", err)
	}
}

// broadcast pushes the metadata document to every live peer so any
// node can answer for the trace without a lookup round-trip. Failures
// are tolerated: a peer that missed the push fetches lazily on first
// use (resolve), and a down peer is skipped rather than waited on.
func (c *clusterCoordinator) broadcast(ctx context.Context, m clusterMeta) {
	doc, err := json.Marshal(m)
	if err != nil {
		return
	}
	for _, p := range c.fleet.Members() {
		if c.fleet.IsSelf(p.ID) || !c.fleet.Alive(p.ID) {
			continue
		}
		c.fleet.AddMetaBroadcast()
		_, _ = c.fleet.Client(p.ID).Do(ctx, http.MethodPut,
			"/internal/v1/meta/"+url.PathEscape(m.Name), nil, "application/json", doc)
	}
}

// broadcastDelete tells every live peer to forget the trace.
func (c *clusterCoordinator) broadcastDelete(ctx context.Context, name string) {
	for _, p := range c.fleet.Members() {
		if c.fleet.IsSelf(p.ID) || !c.fleet.Alive(p.ID) {
			continue
		}
		_, _ = c.fleet.Client(p.ID).Do(ctx, http.MethodDelete,
			"/internal/v1/meta/"+url.PathEscape(name), nil, "", nil)
	}
}

// resolve finds the cluster entry for name: the local registry first,
// then — unless the name is local — a lazy fetch from the peers in
// placement-preference order, adopting what they return. A name this
// node stores locally is never treated as distributed (cluster traces
// are registered, not stored, under their public name).
func (c *clusterCoordinator) resolve(ctx context.Context, name string) (*clusterEntry, bool) {
	if e, ok := c.get(name); ok {
		return e, true
	}
	if name == "" || strings.HasPrefix(name, shardPrefix) {
		return nil, false
	}
	if _, err := c.srv.store.View(name); err == nil {
		return nil, false
	}
	for _, id := range c.fleet.SortByLiveness(c.fleet.Owners(name, c.fleet.Size())) {
		if c.fleet.IsSelf(id) || !c.fleet.Alive(id) {
			continue
		}
		resp, err := c.fleet.Client(id).Get(ctx, "/internal/v1/meta/"+url.PathEscape(name), nil)
		if err != nil || resp.Status != http.StatusOK {
			continue
		}
		var m clusterMeta
		if json.Unmarshal(resp.Body, &m) != nil || m.Name != name || m.Shards < 1 {
			continue
		}
		return c.adopt(m), true
	}
	return nil, false
}

// splitRuns partitions jobs into k contiguous runs with the same
// deterministic arithmetic trace.SplitJobs uses (the first n%k runs
// are one longer). The exact partition does not matter for report
// bytes — any contiguous ordered partition merges identically — but
// determinism keeps replica placement and re-ingests stable.
func splitRuns(jobs []*trace.Job, k int) [][]*trace.Job {
	out := make([][]*trace.Job, k)
	n := len(jobs)
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + n/k
		if i < n%k {
			hi++
		}
		out[i] = jobs[lo:hi]
		lo = hi
	}
	return out
}

// ingest is the distributed upload path: collect and normalize the
// stream exactly as a single-node ingest would, fingerprint it (keeping
// the hasher midstate for future appends), split it into
// min(defaultShards, jobs) shards each carrying the full trace's
// metadata — the merge contract — and place every shard on its ring
// owners. The upload succeeds when every shard landed on at least one
// owner; fewer than R replicas is reduced redundancy, not failure.
func (c *clusterCoordinator) ingest(ctx context.Context, name string, src trace.Source) (TraceInfo, error) {
	if name == "" {
		return TraceInfo{}, fmt.Errorf("server: empty trace name")
	}
	if strings.HasPrefix(name, shardPrefix) {
		return TraceInfo{}, badReq("trace name %q is reserved for cluster shard replicas", name)
	}
	// Without a durable backing the hot tier's job budget is a hard cap,
	// as on the local path; with one, local ingest spills instead of
	// rejecting, so shard placement is allowed to as well (the transient
	// buffered copy here is bounded by the request's byte cap).
	budget := c.srv.store.RemainingBudget(name)
	t := trace.New(src.Meta())
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return TraceInfo{}, err
		}
		if c.srv.backing == nil && t.Len() >= budget {
			return TraceInfo{}, fmt.Errorf("%w: upload exceeds the remaining %d-job budget", ErrStoreFull, budget)
		}
		t.Add(j)
	}
	if err := normalize(name, t); err != nil {
		return TraceInfo{}, err
	}

	fh := trace.NewHasher()
	if err := fh.Begin(t.Meta); err != nil {
		return TraceInfo{}, err
	}
	for _, j := range t.Jobs {
		if err := fh.Write(j); err != nil {
			return TraceInfo{}, err
		}
	}
	state, err := fh.MarshalBinary()
	if err != nil {
		return TraceInfo{}, err
	}

	shards := c.fleet.Shards()
	if shards > t.Len() {
		// Empty shards would be rejected by the owners' stores; the
		// merge treats fewer shards identically anyway.
		shards = t.Len()
	}
	runs := splitRuns(t.Jobs, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			if err := trace.WriteJSONL(&buf, &trace.Trace{Meta: t.Meta, Jobs: runs[i]}); err != nil {
				errs[i] = err
				return
			}
			errs[i] = c.placeShard(ctx, name, i, buf.Bytes())
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Best-effort takeback of the shards that did land; the
			// upload as a whole did not commit.
			c.dropShards(ctx, name, shards)
			return TraceInfo{}, fmt.Errorf("%w: %v", errUpstream, err)
		}
	}

	sum := t.Summarize()
	last := t.Jobs[t.Len()-1]
	m := clusterMeta{
		Name:         name,
		Workload:     t.Meta.Name,
		Machines:     t.Meta.Machines,
		StartNS:      t.Meta.Start.UnixNano(),
		LengthMS:     t.Meta.Length.Milliseconds(),
		Jobs:         t.Len(),
		BytesMoved:   int64(sum.BytesMoved),
		Fingerprint:  fh.Sum(),
		Shards:       shards,
		Replication:  c.fleet.Replication(),
		HasherState:  state,
		LastSubmitNS: last.SubmitTime.UnixNano(),
		LastID:       last.ID,
	}

	// A replacement may shrink the shard count or change the content:
	// drop the old version's extra shard replicas and its memoized
	// results before registering the new document.
	if old, ok := c.get(name); ok {
		om := old.snapshot()
		if om.Shards > shards {
			c.dropShardRange(ctx, name, shards, om.Shards)
		}
		if om.Fingerprint != m.Fingerprint {
			c.srv.cache.InvalidatePrefix(om.Fingerprint + "|")
		}
	}
	c.adopt(m)
	c.broadcast(ctx, m)
	return m.info(), nil
}

// placeShard stores one shard's JSONL body on each of its ring owners,
// self included. At least one replica must accept it.
func (c *clusterCoordinator) placeShard(ctx context.Context, name string, i int, body []byte) error {
	placed := 0
	var lastErr error
	for _, id := range c.fleet.Owners(shardKey(name, i), c.fleet.Replication()) {
		if c.fleet.IsSelf(id) {
			src, err := trace.NewJSONLReader(bytes.NewReader(body))
			if err == nil {
				_, err = c.srv.store.Ingest(shardTraceName(name, i), src)
			}
			if err != nil {
				lastErr = err
				continue
			}
			placed++
		} else {
			resp, err := c.fleet.Client(id).Do(ctx, http.MethodPost, shardPath(name, i), nil, "application/jsonl", body)
			if err != nil {
				lastErr = err
				continue
			}
			if resp.Status != http.StatusCreated {
				lastErr = fmt.Errorf("peer %s rejected shard %d: status %d: %s", id, i, resp.Status, resp.Body)
				continue
			}
			placed++
		}
	}
	if placed == 0 {
		return fmt.Errorf("no owner accepted shard %d of %q: %v", i, name, lastErr)
	}
	return nil
}

// dropShards best-effort deletes every replica of shards [0, n).
func (c *clusterCoordinator) dropShards(ctx context.Context, name string, n int) {
	c.dropShardRange(ctx, name, 0, n)
}

// dropShardRange best-effort deletes every replica of shards [lo, hi).
func (c *clusterCoordinator) dropShardRange(ctx context.Context, name string, lo, hi int) {
	for i := lo; i < hi; i++ {
		for _, id := range c.fleet.Owners(shardKey(name, i), c.fleet.Replication()) {
			if c.fleet.IsSelf(id) {
				c.srv.store.Delete(shardTraceName(name, i))
			} else if c.fleet.Alive(id) {
				_, _ = c.fleet.Client(id).Do(ctx, http.MethodDelete, shardPath(name, i), nil, "", nil)
			}
		}
	}
}

// delete removes a distributed trace everywhere: shard replicas on
// their owners, the metadata document on every member, and the
// fingerprint's memoized results locally.
func (c *clusterCoordinator) delete(ctx context.Context, e *clusterEntry) {
	m := e.snapshot()
	c.dropShards(ctx, m.Name, m.Shards)
	c.remove(m.Name)
	c.srv.cache.InvalidatePrefix(m.Fingerprint + "|")
	c.broadcastDelete(ctx, m.Name)
}

// degradedError carries a successfully rendered but incomplete report
// through the result cache's error path: Do never caches errors, so a
// degraded answer is served to the current waiters and recomputed next
// time — when the missing owners may be back.
type degradedError struct {
	body    []byte
	missing []int
	ev      *scanEvidence
}

func (e *degradedError) Error() string {
	return fmt.Sprintf("server: degraded report (missing shards %v)", e.missing)
}

// report answers GET /v1/traces/{name}/report for a distributed trace
// through the shared report pipeline (see handleReport). What is the
// coordinator's own: a warm cluster-cache peek, the scatter to one live
// owner per shard and the merge of their frozen partials in shard
// order — byte-identical to a single-node analysis when every
// shard answers — the degraded answer when some shard does not, and
// the X-Cluster-* headers.
func (c *clusterCoordinator) report(w http.ResponseWriter, r *http.Request, e *clusterEntry) {
	m := e.snapshot()
	q, err := parseReportQuery(r, m.traceMeta().Start, m.LengthMS)
	if err != nil {
		writeErr(w, err)
		return
	}
	if q.full {
		writeErr(w, fmt.Errorf("%w: full=1 needs random access to the whole trace; distributed traces are served by the streaming analyses", errUnprocessable))
		return
	}
	key := q.key(m.Fingerprint)
	w.Header().Set("X-Cluster-Shards", strconv.Itoa(m.Shards))

	rt := obs.FromContext(r.Context())
	remoteHit := false
	body, cached, err := c.srv.cache.Do(key, func() ([]byte, error) {
		// Any member may have answered this exact query already: the
		// key's ring owner is the cluster-wide rendezvous for its
		// memoized bytes, so ask it before scattering.
		if owner := c.fleet.Home(key); !c.fleet.IsSelf(owner) && c.fleet.Alive(owner) {
			resp, err := c.fleet.Client(owner).Get(r.Context(), "/internal/v1/cache", url.Values{"key": {key}})
			if err == nil && resp.Status == http.StatusOK {
				remoteHit = true
				c.fleet.AddRemoteCacheHit()
				return resp.Body, nil
			}
		}
		parts, ev := c.gather(r.Context(), m, q)
		endMerge := rt.StartSpan("core.merge", spanDetail("parts", len(parts)))
		merged, missing, err := mergeShards(parts)
		endMerge()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errUnprocessable, err)
		}
		if merged == nil {
			return nil, fmt.Errorf("%w: no shard owner reachable for %q", errUpstream, m.Name)
		}
		c.fleet.AddMerges(len(parts) - len(missing))
		body, err := finishReport(w, rt, merged, q.top, "scatter", ev)
		if err != nil {
			return nil, err
		}
		// Whole-trace reports can additionally detect stale replicas (a
		// copy that missed an append) by job count; a window legitimately
		// covers fewer jobs, so only missing shards degrade it.
		if len(missing) > 0 || (!q.windowed && merged.Jobs() != m.Jobs) {
			return nil, &degradedError{body: body, missing: missing, ev: ev}
		}
		// Publish to the rendezvous owner so any member serves the next
		// repeat warm.
		if owner := c.fleet.Home(key); !c.fleet.IsSelf(owner) && c.fleet.Alive(owner) {
			_, _ = c.fleet.Client(owner).Do(r.Context(), http.MethodPut, "/internal/v1/cache",
				url.Values{"key": {key}}, "application/json", body)
		}
		return body, nil
	})
	var deg *degradedError
	if errors.As(err, &deg) {
		c.fleet.AddDegraded()
		w.Header().Set("X-Analysis", "degraded")
		w.Header().Set("X-Cluster-Missing-Shards", intsCSV(deg.missing))
		deg.ev.addTo(w.Header())
		body, cached, err = deg.body, false, nil
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	if remoteHit {
		w.Header().Set("X-Cluster-Cache", "HIT")
	}
	writeCached(w, body, cached)
}

// mergeShards merges the gathered shard partials, in shard order, into
// a fresh partial. The parts are frozen, and local ones are the store's
// shared aggregates, so they are only read; linear merges of their
// sorted columns leave the result frozen too. missing lists the shards
// with no partial; merged is nil when none answered.
func mergeShards(parts []*core.Partial) (merged *core.Partial, missing []int, err error) {
	var got []*core.Partial
	for i, p := range parts {
		if p == nil {
			missing = append(missing, i)
			continue
		}
		got = append(got, p)
	}
	if len(got) == 0 {
		return nil, missing, nil
	}
	if merged, err = core.NewPartial(got[0].Meta(), got[0].Sketch()); err != nil {
		return nil, nil, err
	}
	if err := merged.Merge(got...); err != nil {
		return nil, nil, err
	}
	return merged, missing, nil
}

// gather fetches one frozen partial per shard concurrently.
// parts[i] is nil when every replica of shard i failed; the summed
// scan evidence covers the shards that answered.
func (c *clusterCoordinator) gather(ctx context.Context, m clusterMeta, q reportQuery) ([]*core.Partial, *scanEvidence) {
	c.fleet.AddScatter()
	defer obs.FromContext(ctx).StartSpan("scatter", spanDetail("shards", m.Shards))()
	parts := make([]*core.Partial, m.Shards)
	evs := make([]*scanEvidence, m.Shards)
	var wg sync.WaitGroup
	for i := 0; i < m.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], evs[i] = c.shardPartial(ctx, m, i, q)
		}(i)
	}
	wg.Wait()
	var ev *scanEvidence
	for _, e := range evs {
		ev = ev.merge(e)
	}
	return parts, ev
}

// shardPartial resolves one shard's frozen partial from its replica
// owners in liveness-preference order. Self short-circuits to the local
// store, with no snapshot round trip: it returns partialFor's partial,
// frozen as a remote owner freezes it before the snapshot (a no-op on
// the store's shared one, which it returns itself). The caller only
// merges it into a fresh receiver, which never modifies the argument.
// Remote owners answer with the versioned binary snapshot, which
// decodes frozen.
func (c *clusterCoordinator) shardPartial(ctx context.Context, m clusterMeta, i int, q reportQuery) (*core.Partial, *scanEvidence) {
	// The owner parses these with parseReportQuery against the shard's
	// span, which is the whole trace's: the window arrives as resolved.
	vals := url.Values{}
	if q.sketch {
		vals.Set("sketch", "1")
	}
	if q.windowed {
		vals.Set("from", q.from.UTC().Format(time.RFC3339Nano))
		vals.Set("to", q.to.UTC().Format(time.RFC3339Nano))
	}
	rt := obs.FromContext(ctx)
	for _, id := range c.fleet.SortByLiveness(c.fleet.Owners(shardKey(m.Name, i), m.Replication)) {
		if c.fleet.IsSelf(id) {
			endSpan := rt.StartSpan("shard-fetch", spanDetail("shard", i, "peer", id, "local", true))
			v, err := c.srv.store.View(shardTraceName(m.Name, i))
			var p *core.Partial
			var ev *scanEvidence
			if err == nil {
				p, _, ev, err = c.srv.partialFor(rt, v, q)
			}
			if err == nil {
				p.Freeze()
			}
			endSpan()
			if err != nil {
				continue
			}
			return p, ev
		}
		c.fleet.AddShardFetch()
		endSpan := rt.StartSpan("shard-fetch", spanDetail("shard", i, "peer", id))
		resp, err := c.fleet.Client(id).Get(ctx, shardPath(m.Name, i)+"/partial", vals)
		endSpan()
		if err != nil || resp.Status != http.StatusOK {
			c.srv.metrics.shardFetchErrors.With(id).Inc()
			continue
		}
		p, err := core.UnmarshalPartial(resp.Body)
		if err != nil {
			continue
		}
		return p, parseScanEvidence(resp.Header)
	}
	c.fleet.AddShardFailure()
	return nil, nil
}

// append extends a distributed trace. Any node accepts the batch, but
// exactly one — the trace name's home node — serializes appends: it
// validates order against the committed tail, forwards the batch to
// the tail shard's owners, extends the restored fingerprint hasher,
// and republishes the metadata. Non-home nodes proxy to the home node
// (one hop; a forwarding loop guard catches placement disagreement).
func (c *clusterCoordinator) append(w http.ResponseWriter, r *http.Request, e *clusterEntry) {
	name := e.snapshot().Name
	home := c.fleet.Home(name)
	if !c.fleet.IsSelf(home) {
		if r.Header.Get(fleetForwardedHeader) != "" {
			writeErr(w, fmt.Errorf("%w: append forwarding loop for %q (placement disagreement with %s)", errUpstream, name, home))
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.srv.maxUpload))
		if err != nil {
			writeErr(w, badReq("reading append: %v", err))
			return
		}
		hdr := http.Header{
			"Content-Type":       {"application/jsonl"},
			fleetForwardedHeader: {c.fleet.Self()},
		}
		resp, err := c.fleet.Client(home).DoHeaders(r.Context(), http.MethodPost,
			"/v1/traces/"+url.PathEscape(name)+"/append", nil, hdr, body)
		if err != nil {
			writeErr(w, fmt.Errorf("%w: home node %s: %v", errUpstream, home, err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Fleet-Proxied", home)
		w.WriteHeader(resp.Status)
		_, _ = w.Write(resp.Body)
		return
	}

	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	m := e.snapshot()
	src, err := trace.NewJSONLReader(http.MaxBytesReader(w, r.Body, c.srv.maxUpload))
	if err != nil {
		writeErr(w, badReq("decoding append: %v", err))
		return
	}
	batchMeta := src.Meta()
	batch, err := collectBatch(src)
	if err != nil {
		writeErr(w, badReq("%v", err))
		return
	}
	if err := checkBatchMeta(batchMeta, m.traceMeta()); err != nil {
		writeErr(w, err)
		return
	}
	tail := &trace.Job{SubmitTime: time.Unix(0, m.LastSubmitNS).UTC(), ID: m.LastID}
	if jobLess(batch[0], tail) {
		writeErr(w, errAppendOrder(batch[0], tail.SubmitTime, tail.ID))
		return
	}

	// The batch extends the trace's global tail, which lives in the last
	// shard. Forward it there under the full trace's header (it matches
	// the shard's committed metadata exactly); each owner's own append
	// session replays, validates, and commits the shard replica.
	tailShard := m.Shards - 1
	var fwd bytes.Buffer
	if err := trace.WriteJSONL(&fwd, &trace.Trace{Meta: m.traceMeta(), Jobs: batch}); err != nil {
		writeErr(w, err)
		return
	}
	placed := 0
	var lastErr error
	for _, id := range c.fleet.Owners(shardKey(name, tailShard), m.Replication) {
		if c.fleet.IsSelf(id) {
			src, err := trace.NewJSONLReader(bytes.NewReader(fwd.Bytes()))
			if err == nil {
				_, _, _, err = c.srv.store.Append(shardTraceName(name, tailShard), src)
			}
			if err != nil {
				if errors.Is(err, ErrAppendConflict) || errors.Is(err, ErrStoreFull) {
					// Deterministic rejection: every healthy replica would
					// answer the same, so it is the append's answer.
					writeErr(w, err)
					return
				}
				lastErr = err
				continue
			}
			placed++
		} else {
			resp, err := c.fleet.Client(id).Do(r.Context(), http.MethodPost,
				shardPath(name, tailShard)+"/append", nil, "application/jsonl", fwd.Bytes())
			if err != nil {
				lastErr = err
				// The replica missed this batch; take its copy down (best
				// effort) so reads fall to a complete replica instead of a
				// silently shortened one.
				c.dropShardReplica(r.Context(), id, name, tailShard)
				continue
			}
			if resp.Status == http.StatusOK {
				placed++
				continue
			}
			if resp.Status >= 400 && resp.Status < 500 || resp.Status == http.StatusInsufficientStorage {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(resp.Status)
				_, _ = w.Write(resp.Body)
				return
			}
			lastErr = fmt.Errorf("peer %s: status %d: %s", id, resp.Status, resp.Body)
			c.dropShardReplica(r.Context(), id, name, tailShard)
		}
	}
	if placed == 0 {
		writeErr(w, fmt.Errorf("%w: no owner of shard %d accepted the append for %q: %v", errUpstream, tailShard, name, lastErr))
		return
	}

	fh, err := trace.UnmarshalHasher(m.HasherState)
	if err != nil {
		writeErr(w, fmt.Errorf("server: restoring fingerprint state for %q: %v", name, err))
		return
	}
	var bytesDelta int64
	for _, j := range batch {
		if err := fh.Write(j); err != nil {
			writeErr(w, err)
			return
		}
		bytesDelta += int64(j.TotalBytes())
	}
	state, err := fh.MarshalBinary()
	if err != nil {
		writeErr(w, err)
		return
	}
	prevFP := m.Fingerprint
	last := batch[len(batch)-1]
	m.Fingerprint = fh.Sum()
	m.HasherState = state
	m.Jobs += len(batch)
	m.BytesMoved += bytesDelta
	m.LastSubmitNS = last.SubmitTime.UnixNano()
	m.LastID = last.ID
	e.update(m)
	c.persist(m)
	c.broadcast(r.Context(), m)
	if prevFP != m.Fingerprint {
		c.srv.cache.InvalidatePrefix(prevFP + "|")
	}
	writeJSON(w, http.StatusOK, AppendResponse{TraceInfo: m.info(), Appended: len(batch)})
}

// dropShardReplica best-effort deletes one replica's copy of a shard
// (used when the replica missed an append and its copy went stale).
func (c *clusterCoordinator) dropShardReplica(ctx context.Context, id, name string, i int) {
	if c.fleet.IsSelf(id) {
		c.srv.store.Delete(shardTraceName(name, i))
		return
	}
	_, _ = c.fleet.Client(id).Do(ctx, http.MethodDelete, shardPath(name, i), nil, "", nil)
}

// mergeList folds the distributed traces into a local listing, hiding
// shard replicas. A name registered as distributed shadows any local
// trace of the same name, matching the read paths' precedence.
func (c *clusterCoordinator) mergeList(local []TraceInfo) []TraceInfo {
	c.mu.RLock()
	infos := make(map[string]TraceInfo, len(c.traces))
	for name, e := range c.traces {
		infos[name] = e.snapshot().info()
	}
	c.mu.RUnlock()
	out := make([]TraceInfo, 0, len(local)+len(infos))
	for _, info := range local {
		if strings.HasPrefix(info.Name, shardPrefix) {
			continue
		}
		if _, shadowed := infos[info.Name]; shadowed {
			continue
		}
		out = append(out, info)
	}
	for _, info := range infos {
		out = append(out, info)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// stats assembles the cluster section of /v1/stats.
func (c *clusterCoordinator) stats() *ClusterStats {
	st := &ClusterStats{Stats: c.fleet.Stats()}
	c.mu.RLock()
	st.Traces = len(c.traces)
	c.mu.RUnlock()
	for _, info := range c.srv.store.List() {
		if strings.HasPrefix(info.Name, shardPrefix) {
			st.LocalShards++
		}
	}
	return st
}

// rejectClusterTrace fails requests that need the whole trace resident
// on one node (synthesis, replay) when the name is distributed.
func (s *Server) rejectClusterTrace(r *http.Request) error {
	if s.cluster == nil {
		return nil
	}
	name := r.PathValue("name")
	if _, ok := s.cluster.resolve(r.Context(), name); ok {
		return fmt.Errorf("%w: %q is a distributed trace; synthesis and replay need the whole trace on one node", errUnprocessable, name)
	}
	return nil
}

// intsCSV renders shard indices for the X-Cluster-Missing-Shards
// header.
func intsCSV(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// --- peer protocol handlers (registered only in cluster mode) ---

// shardPathValues parses the {name}/{shard} route values.
func shardPathValues(r *http.Request) (string, int, error) {
	name := r.PathValue("name")
	i, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || i < 0 || name == "" {
		return "", 0, badReq("bad shard reference %q/%q", name, r.PathValue("shard"))
	}
	return name, i, nil
}

// handleShardIngest stores one shard replica (POST, JSONL body).
func (s *Server) handleShardIngest(w http.ResponseWriter, r *http.Request) {
	name, i, err := shardPathValues(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	src, err := trace.NewJSONLReader(http.MaxBytesReader(w, r.Body, s.maxUpload))
	if err != nil {
		writeErr(w, badReq("decoding shard: %v", err))
		return
	}
	info, err := s.store.Ingest(shardTraceName(name, i), src)
	if err != nil {
		writeUploadErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// handleShardAppend extends one shard replica (POST, JSONL body).
func (s *Server) handleShardAppend(w http.ResponseWriter, r *http.Request) {
	name, i, err := shardPathValues(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	src, err := trace.NewJSONLReader(http.MaxBytesReader(w, r.Body, s.maxUpload))
	if err != nil {
		writeErr(w, badReq("decoding shard append: %v", err))
		return
	}
	info, appended, _, err := s.store.Append(shardTraceName(name, i), src)
	if err != nil {
		writeUploadErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, AppendResponse{TraceInfo: info, Appended: appended})
}

// handleShardPartial answers one shard's partial aggregate as the
// versioned binary snapshot — the node-to-node wire format. It takes
// the report parameters (sketch, from/to) of the coordinator's query;
// the X-Scan-* headers carry the shard-local pruning evidence for the
// coordinator to aggregate.
func (s *Server) handleShardPartial(w http.ResponseWriter, r *http.Request) {
	name, i, err := shardPathValues(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	v, err := s.store.View(shardTraceName(name, i))
	if err != nil {
		writeErr(w, err)
		return
	}
	q, err := parseReportQuery(r, v.spanStart(), v.Info.LengthMS)
	if err != nil {
		writeErr(w, err)
		return
	}
	p, _, ev, err := s.partialFor(obs.FromContext(r.Context()), v, q)
	if err != nil {
		writeErr(w, err)
		return
	}
	p.Freeze() // the snapshot carries sorted runs, for the gather's linear merge
	snap, err := p.MarshalBinary()
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-swim-partial")
	w.Header().Set("Content-Length", strconv.Itoa(len(snap)))
	ev.addTo(w.Header())
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(snap)
}

// handleShardDelete removes one shard replica. Absent is fine: deletes
// are idempotent cleanup.
func (s *Server) handleShardDelete(w http.ResponseWriter, r *http.Request) {
	name, i, err := shardPathValues(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.store.Delete(shardTraceName(name, i))
	w.WriteHeader(http.StatusNoContent)
}

// handleMetaPut adopts a broadcast metadata document.
func (s *Server) handleMetaPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, badReq("reading metadata: %v", err))
		return
	}
	var m clusterMeta
	if err := json.Unmarshal(body, &m); err != nil || m.Name != name || m.Shards < 1 {
		writeErr(w, badReq("bad cluster metadata for %q", name))
		return
	}
	s.cluster.adopt(m)
	w.WriteHeader(http.StatusNoContent)
}

// handleMetaGet serves this node's metadata document for a trace (the
// lazy-resolve path for peers that missed the broadcast).
func (s *Server) handleMetaGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.cluster.get(name)
	if !ok {
		writeErr(w, fmt.Errorf("%w: %q", ErrNotFound, name))
		return
	}
	writeJSON(w, http.StatusOK, e.snapshot())
}

// handleMetaDelete forgets a trace's metadata (the delete broadcast).
func (s *Server) handleMetaDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if e, ok := s.cluster.get(name); ok {
		s.cluster.remove(name)
		s.cache.InvalidatePrefix(e.snapshot().Fingerprint + "|")
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleCachePeek answers a peer's warm-hit probe from the local
// result cache (?key=...). 404 on a miss — the peer then computes.
func (s *Server) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErr(w, badReq("missing key"))
		return
	}
	body, ok := s.cache.Peek(key)
	if !ok {
		writeErr(w, fmt.Errorf("%w: cache key", ErrNotFound))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleCachePut adopts a result a peer computed (?key=..., body =
// rendered bytes). Keys embed content fingerprints, so adopted entries
// are as trustworthy as local ones.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErr(w, badReq("missing key"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxUpload))
	if err != nil {
		writeErr(w, badReq("reading cache value: %v", err))
		return
	}
	s.cache.Put(key, body)
	w.WriteHeader(http.StatusNoContent)
}
