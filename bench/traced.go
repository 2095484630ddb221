package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The traced run replays a workload's seeded request sequence against
// an in-process server, one request at a time. Each request is timed
// whole through Handler().ServeHTTP (the server.http span), then run
// again as a chain of calls into each layer's exported functions under
// a "request" span, whose bytes must equal the HTTP body: that equality
// is what makes the breakdown a measurement of the program's work.
// Work the chain cannot split — a parallel scan's decode and observe —
// is replayed sequentially afterwards as child spans of the call that
// did it, and per-section builder work under a separate "breakdown"
// root.

// maxTracedRequests caps a traced run (warm hits are cheap enough to
// otherwise write millions of spans).
const maxTracedRequests = 20000

// span is one timed call. Parent 0 marks a root. N counts the span's
// work: jobs for decode, hash, observe, finalize, scan and append;
// bytes for marshal.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	base  time.Time
	req   int
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Req: t.req, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.base))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.base)) }

func (t *tracer) endN(id, n int) {
	t.end(id)
	t.spans[id-1].N += n
}

// sections are the four section builders a partial bundles, kept by the
// benchmark so each one's observe and finalize can be timed alone.
type sections struct {
	sum *trace.SummaryAccumulator
	ds  *analysis.DataSizeBuilder
	ts  *analysis.TimeSeriesBuilder
	nb  *analysis.NamesBuilder
}

func newSections(meta trace.Meta) (*sections, error) {
	ts, err := analysis.NewTimeSeriesBuilder(meta.Name, meta.Start, meta.Length)
	if err != nil {
		return nil, err
	}
	return &sections{
		sum: trace.NewSummaryAccumulator(meta),
		ds:  analysis.NewDataSizeBuilder(meta.Name, false),
		ts:  ts,
		nb:  analysis.NewNamesBuilder(meta.Name),
	}, nil
}

func (s *sections) observe(t *tracer, parent int, jobs []*trace.Job) {
	id := t.begin("analysis.observe.summary", parent)
	for _, j := range jobs {
		s.sum.Observe(j)
	}
	t.endN(id, len(jobs))
	id = t.begin("analysis.observe.datasize", parent)
	for _, j := range jobs {
		s.ds.Observe(j)
	}
	t.endN(id, len(jobs))
	id = t.begin("analysis.observe.timeseries", parent)
	for _, j := range jobs {
		s.ts.Observe(j)
	}
	t.endN(id, len(jobs))
	id = t.begin("analysis.observe.names", parent)
	for _, j := range jobs {
		s.nb.Observe(j)
	}
	t.endN(id, len(jobs))
}

// finalize times each section's share of Partial.Report.
func (s *sections) finalize(t *tracer, parent, top int) error {
	if top == 0 {
		top = 8
	}
	id := t.begin("analysis.finalize.summary", parent)
	_ = s.sum.Summary()
	t.end(id)
	id = t.begin("analysis.finalize.datasize", parent)
	_, err := s.ds.Result()
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("analysis.finalize.timeseries", parent)
	series := s.ts.Series()
	_, _ = series.BurstinessOf()
	_, _ = series.Correlate()
	t.end(id)
	id = t.begin("analysis.finalize.names", parent)
	_, _ = s.nb.Result(top)
	t.end(id)
	return nil
}

// appendChain is the live feed's append path rebuilt from layer calls:
// a running fingerprint, a private aggregate refrozen per batch, and a
// storage appender committing each batch.
type appendChain struct {
	hasher   *trace.Hasher
	live     *core.Partial
	sections *sections
	store    *storage.Store
	appender *storage.Appender
}

// tracedRun is one traced replay.
type tracedRun struct {
	w     *workload
	dir   string
	srv   *server.Server
	h     http.Handler
	t     tracer
	cache *server.ResultCache // the chain's own result cache
	// sections of each uploaded trace, for the whole-trace finalize
	// breakdown.
	whole map[string]*sections
	chain *appendChain

	attempted, failed int
	errs              []string
	scan              scanHeaders // summed X-Scan-* evidence
	diskReads         int
}

func (tr *tracedRun) fail(err error) {
	tr.failed++
	if len(tr.errs) < 10 {
		tr.errs = append(tr.errs, err.Error())
	}
}

// runTraced performs the traced replay and returns the per-layer
// metrics.
func runTraced(w *workload, work, out string, seconds float64) (*runResult, error) {
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-trace", w.name, w.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := &tracedRun{w: w, dir: dir, cache: server.NewResultCache(0), whole: make(map[string]*sections)}
	tr.t.base = time.Now()
	if err := tr.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if tr.chain != nil {
			tr.chain.appender.Close()
			tr.chain.store.Close()
		}
		tr.srv.Close()
	}()

	// warm-skew's warm pass leads, as in the untraced run, so the chain's
	// cache warms with the server's.
	ops := append(append([]*op(nil), w.warm...), tr.sequence(seconds)...)
	before := tr.srv.Cache().Stats()
	storeBefore := tr.srv.Store().Stats()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i, o := range ops {
		if i >= maxTracedRequests || time.Now().After(deadline) {
			break
		}
		tr.t.req = i + 1
		tr.replay(o, i%2 == 1)
	}
	after := tr.srv.Cache().Stats()
	storeAfter := tr.srv.Store().Stats()

	res := &runResult{}
	m := tr.layerMetrics()
	hits := float64(after.Hits - before.Hits)
	lookups := hits + float64(after.Misses-before.Misses) + float64(after.Coalesced-before.Coalesced)
	m.add("server.cache.hit_ratio", ratio(hits, lookups), "ratio")
	m.add("server.cache.coalesced", float64(after.Coalesced-before.Coalesced), "count")
	m.add("server.cache.evictions", float64(after.Evictions-before.Evictions), "count")
	m.add("storage.compact.runs", float64(storeAfter.Compactions-storeBefore.Compactions), "count")
	m.add("storage.compact.segments_merged", float64(storeAfter.SegmentsMerged-storeBefore.SegmentsMerged), "count")
	m.add("storage.bytes_per_job", ratio(float64(storeAfter.DiskBytes), float64(storeAfter.TotalJobs)), "bytes")
	transport, err := tr.transportProbe(ops)
	if err != nil {
		return nil, err
	}
	m.add("server.transport.us_p50", transport, "us")
	m.add("server.cache.do_hit_ns", cacheHitNS(), "ns")
	if err := tr.snapshotMetrics(m); err != nil {
		return nil, err
	}
	m.add("bench.trace_overhead_pct", tr.traceOverheadPct(), "%")
	if err := tr.writeSpans(out); err != nil {
		return nil, err
	}
	res.metrics = m.list
	res.attempted, res.failed, res.errs = tr.attempted, tr.failed, tr.errs
	res.notes = append(res.notes, fmt.Sprintf("traced requests %d of %d in the sequence, spans %d",
		tr.requests(), len(ops), len(tr.t.spans)))
	return res, nil
}

// setup starts the in-process server with the workload's swimd
// configuration and uploads its traces through the handler, timing the
// JSONL decode and the fingerprint of every body alone.
func (tr *tracedRun) setup() error {
	w := tr.w
	cfg := w.serverConfig(filepath.Join(tr.dir, "data"))
	var err error
	if tr.srv, err = server.New(cfg); err != nil {
		return err
	}
	tr.h = tr.srv.Handler()
	for _, g := range w.traces {
		root := tr.t.begin("setup", 0)
		if _, err := tr.decodeBody(root, g.body); err != nil {
			return err
		}
		if _, err := tr.fingerprint(root, trace.NewHasher(), g.tr.Meta, g.tr.Jobs, true); err != nil {
			return err
		}
		tr.t.end(root)
		rec := tr.serve("POST", "/v1/traces/"+g.name, g.body)
		resp := recorded(rec)
		if err := checkIdentity(&resp, 201, g.fp, g.tr.Len()); err != nil {
			return fmt.Errorf("uploading %s: %w", g.name, err)
		}
	}
	if w.restart {
		if err := tr.srv.Close(); err != nil {
			return err
		}
		if tr.srv, err = server.New(cfg); err != nil {
			return err
		}
		tr.h = tr.srv.Handler()
	}
	if w.feed != nil {
		return tr.setupChain()
	}
	return nil
}

// setupChain brings the benchmark's own append chain to the state the
// server's live trace starts in: the preloaded days hashed and observed.
func (tr *tracedRun) setupChain() error {
	f := tr.w.feed
	meta := f.full.tr.Meta
	c := &appendChain{hasher: trace.NewHasher()}
	if err := c.hasher.Begin(meta); err != nil {
		return err
	}
	var err error
	if c.live, err = core.NewPartial(meta, false); err != nil {
		return err
	}
	if c.sections, err = newSections(meta); err != nil {
		return err
	}
	for _, j := range f.preload.tr.Jobs {
		if err := c.hasher.Write(j); err != nil {
			return err
		}
		c.live.Observe(j)
	}
	c.sections.observe(&tracer{base: tr.t.base}, 0, f.preload.tr.Jobs)
	if c.store, _, err = storage.Open(filepath.Join(tr.dir, "chain"), storage.Options{}); err != nil {
		return err
	}
	if c.appender, _, err = c.store.OpenAppend(liveTraceName, meta); err != nil {
		return err
	}
	tr.chain = c
	return nil
}

// sequence returns the request sequence the untraced run draws: every
// stream's arrivals over the warm-up and the measured seconds, merged
// in due order.
func (tr *tracedRun) sequence(seconds float64) []*op {
	var ops []*op
	var offset time.Duration
	for _, length := range []time.Duration{warmup, time.Duration(seconds * float64(time.Second))} {
		for _, s := range tr.w.streams {
			for _, o := range s.schedule(length) {
				o.due += offset
				ops = append(ops, o)
			}
		}
		offset += length
	}
	sort.SliceStable(ops, func(i, k int) bool { return ops[i].due < ops[k].due })
	return ops
}

// serve runs one request through the in-process handler.
func (tr *tracedRun) serve(method, target string, body []byte) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	tr.h.ServeHTTP(rec, httptest.NewRequest(method, target, rd))
	return rec
}

// recorded converts a recorded response into the checked form.
func recorded(rec *httptest.ResponseRecorder) response {
	h := rec.Header()
	r := response{status: rec.Code, cache: h.Get("X-Cache"), analysis: h.Get("X-Analysis"), body: rec.Body.Bytes()}
	if v := h.Get("X-Scan-Segments"); v != "" {
		r.scan.present = true
		r.scan.segments = atoi64([]byte(v))
		r.scan.segmentsPruned = atoi64([]byte(h.Get("X-Scan-Segments-Pruned")))
		r.scan.blocks = atoi64([]byte(h.Get("X-Scan-Blocks")))
		r.scan.blocksPruned = atoi64([]byte(h.Get("X-Scan-Blocks-Pruned")))
	}
	return r
}

// replay runs one op both ways and checks that they agree. chainFirst
// alternates which side runs first, so neither always finds the CPU
// caches warmed by the other.
func (tr *tracedRun) replay(o *op, chainFirst bool) {
	tr.attempted++
	method, body, kind := "GET", []byte(nil), "read"
	if o.kind == opAppend {
		method, body, kind = "POST", tr.w.feed.batches[o.batch].body, "append"
	} else if o.liveWhole || o.lookback > 0 {
		tr.w.feed.resolve(o)
	}
	t := &tr.t
	httpID := t.begin("server.http", 0)
	t.spans[httpID-1].Op = kind
	var rec *httptest.ResponseRecorder
	runHTTP := func() {
		t.spans[httpID-1].Start = int64(time.Since(t.base))
		rec = tr.serve(method, o.target, body)
		t.end(httpID)
	}
	var chainBody []byte
	var after func()
	var chainErr error
	runChain := func() {
		reqID := t.begin("request", httpID)
		if o.kind == opAppend {
			chainBody, after, chainErr = tr.appendChain(o, reqID)
		} else {
			chainBody, after, chainErr = tr.readChain(o, reqID)
		}
		t.end(reqID)
	}
	if chainFirst {
		runChain()
		runHTTP()
	} else {
		runHTTP()
		runChain()
	}
	resp := recorded(rec)
	if err := o.check(&resp); err != nil {
		tr.fail(err)
		return
	}
	if chainErr != nil {
		tr.fail(fmt.Errorf("%s: layer chain: %w", o.target, chainErr))
		return
	}
	if o.kind == opAppend {
		var id liveIdentity
		if err := json.Unmarshal(resp.body, &id); err != nil || id.Fingerprint != string(chainBody) {
			tr.fail(fmt.Errorf("append batch %d: server fingerprint %.12s, layer chain %.12s", o.batch, id.Fingerprint, chainBody))
			return
		}
		tr.w.feed.acked.Store(int64(o.batch))
	} else if !bytes.Equal(resp.body, chainBody) {
		tr.fail(fmt.Errorf("%s: layer chain bytes differ from the HTTP body", o.target))
		return
	}
	if resp.scan.present {
		tr.diskReads++
		tr.scan.segments += resp.scan.segments
		tr.scan.segmentsPruned += resp.scan.segmentsPruned
		tr.scan.blocks += resp.scan.blocks
		tr.scan.blocksPruned += resp.scan.blocksPruned
	}
	if after != nil {
		after()
	}
}

// readChain answers a read through layer calls: the store view, the
// result cache, the partial (frozen, built from resident jobs, or
// scanned from segments), finalize, and marshal. It returns the body
// and the replays to run once the request's timing is over.
func (tr *tracedRun) readChain(o *op, parent int) ([]byte, func(), error) {
	t := &tr.t
	id := t.begin("server.store.view", parent)
	v, err := tr.srv.Store().View(o.tr.name)
	t.end(id)
	if err != nil {
		return nil, nil, err
	}
	from, to := o.from, o.to
	if o.trailing > 0 {
		to = o.tr.end()
		from = to.Add(-o.trailing)
	}
	windowed := !from.IsZero()
	var after func()
	cacheID := t.begin("server.cache", parent)
	body, _, err := tr.cache.Do(v.Info.Fingerprint+"|"+o.target, func() ([]byte, error) {
		var p *core.Partial
		var err error
		switch {
		case !windowed && !o.sketch && v.Partial != nil:
			p = v.Partial
			after = tr.sectionsAfter(o)
		case v.Trace != nil:
			win := v.Trace
			if windowed {
				win = v.Trace.Window(from, to.Sub(from))
			}
			id := t.begin("core.observe", cacheID)
			p, err = core.BuildTracePartial(win, 0, o.sketch)
			t.endN(id, win.Len())
		case windowed:
			id := t.begin("storage.scan", cacheID)
			p, _, err = v.Stored.ParallelScanPartial(storage.ParallelScanOptions{
				Window: true, From: from, To: to, Meta: windowMeta(v.Stored.Meta(), from, to),
			})
			if err == nil {
				t.endN(id, p.Jobs())
				after = tr.scanReplay(id, v.Stored, o.tr.tr, from, to, o.top)
			} else {
				t.end(id)
			}
		default:
			err = fmt.Errorf("no layer chain for a whole-trace read of disk-resident %q without a frozen partial", o.tr.name)
		}
		if err != nil {
			return nil, err
		}
		id := t.begin("core.finalize", cacheID)
		rep, err := p.Report(o.top)
		t.endN(id, p.Jobs())
		if err != nil {
			return nil, err
		}
		id = t.begin("core.marshal", cacheID)
		b, err := json.Marshal(rep.JSON())
		t.endN(id, len(b))
		return b, err
	})
	t.end(cacheID)
	return body, after, err
}

// sectionsAfter times each section's finalize of a whole-trace read
// under a breakdown root. An uploaded trace's section builders are
// built on first use, outside any timed span.
func (tr *tracedRun) sectionsAfter(o *op) func() {
	return func() {
		s := tr.whole[o.tr.name]
		if o.liveWhole {
			s = tr.chain.sections
		} else if s == nil {
			var err error
			if s, err = newSections(o.tr.tr.Meta); err != nil {
				tr.fail(err)
				return
			}
			s.observe(&tracer{base: tr.t.base}, 0, o.tr.tr.Jobs)
			tr.whole[o.tr.name] = s
		}
		root := tr.t.begin("breakdown", 0)
		if err := s.finalize(&tr.t, root, o.top); err != nil {
			tr.fail(err)
		}
		tr.t.end(root)
	}
}

// scanReplay replays a parallel scan's work sequentially as children of
// its span — the colseg decode of the pruned window, then the observe
// of its jobs — and the section-level breakdown, merge included.
func (tr *tracedRun) scanReplay(scanID int, st *storage.Trace, full *trace.Trace, from, to time.Time, top int) func() {
	return func() {
		t := &tr.t
		id := t.begin("colseg.decode", scanID)
		srcs, _ := st.WindowShards(from, to)
		n := 0
		for _, src := range srcs {
			for {
				if _, err := src.Next(); err != nil {
					if err != io.EOF {
						tr.fail(err)
					}
					break
				}
				n++
			}
		}
		t.endN(id, n)
		win := full.Window(from, to.Sub(from))
		id = t.begin("core.observe", scanID)
		if _, err := core.BuildPartial(trace.NewSliceSource(win), false); err != nil {
			tr.fail(err)
		}
		t.endN(id, win.Len())

		root := t.begin("breakdown", 0)
		defer t.end(root)
		s, err := newSections(win.Meta)
		if err != nil {
			tr.fail(err)
			return
		}
		s.observe(t, root, win.Jobs)
		if half := win.Len() / 2; half > 0 {
			a, errA := core.BuildPartial(trace.NewSliceSource(&trace.Trace{Meta: win.Meta, Jobs: win.Jobs[:half]}), false)
			b, errB := core.BuildPartial(trace.NewSliceSource(&trace.Trace{Meta: win.Meta, Jobs: win.Jobs[half:]}), false)
			if errA == nil && errB == nil {
				id := t.begin("core.merge", root)
				err := a.Merge(b)
				t.end(id)
				if err != nil {
					tr.fail(err)
				}
			}
		}
		if err := s.finalize(t, root, top); err != nil {
			tr.fail(err)
		}
	}
}

// appendChain commits one batch through layer calls: JSONL decode, the
// running fingerprint, observe into the private aggregate, refreeze,
// and the storage appender's write, seal and commit. It returns the
// new fingerprint.
func (tr *tracedRun) appendChain(o *op, parent int) ([]byte, func(), error) {
	t, c := &tr.t, tr.chain
	jobs, err := tr.decodeBody(parent, tr.w.feed.batches[o.batch].body)
	if err != nil {
		return nil, nil, err
	}
	fp, err := tr.fingerprint(parent, c.hasher, trace.Meta{}, jobs, false)
	if err != nil {
		return nil, nil, err
	}
	id := t.begin("core.observe", parent)
	for _, j := range jobs {
		c.live.Observe(j)
	}
	t.endN(id, len(jobs))
	id = t.begin("core.clone", parent)
	frozen, err := c.live.Clone()
	t.endN(id, c.live.Jobs())
	if err != nil {
		return nil, nil, err
	}
	id = t.begin("storage.append", parent)
	for _, j := range jobs {
		if err = c.appender.Append(j); err != nil {
			break
		}
	}
	var sealed *storage.Sealed
	if err == nil {
		sealed, err = c.appender.Seal(fp, frozen)
	}
	if err == nil {
		_, err = c.appender.Commit(sealed)
	}
	t.endN(id, len(jobs))
	if err != nil {
		return nil, nil, err
	}
	after := func() {
		root := t.begin("breakdown", 0)
		c.sections.observe(t, root, jobs)
		t.end(root)
	}
	return []byte(fp), after, nil
}

// decodeBody times the JSONL decode of one request body.
func (tr *tracedRun) decodeBody(parent int, body []byte) ([]*trace.Job, error) {
	id := tr.t.begin("trace.decode", parent)
	var jobs []*trace.Job
	src, err := trace.NewJSONLReader(bytes.NewReader(body))
	for err == nil {
		var j *trace.Job
		if j, err = src.Next(); err == nil {
			jobs = append(jobs, j)
		}
	}
	tr.t.endN(id, len(jobs))
	if err != io.EOF {
		return nil, err
	}
	return jobs, nil
}

// fingerprint times folding jobs into a content hash (begun with meta
// when begin is set) and returns the running sum.
func (tr *tracedRun) fingerprint(parent int, h *trace.Hasher, meta trace.Meta, jobs []*trace.Job, begin bool) (string, error) {
	id := tr.t.begin("trace.fingerprint", parent)
	defer tr.t.endN(id, len(jobs))
	if begin {
		if err := h.Begin(meta); err != nil {
			return "", err
		}
	}
	for _, j := range jobs {
		if err := h.Write(j); err != nil {
			return "", err
		}
	}
	return h.Sum(), nil
}

// transportProbe measures what loopback TCP adds to a request: the
// same cached read served alternately in-process and over a real
// connection, median against median, in microseconds.
func (tr *tracedRun) transportProbe(ops []*op) (float64, error) {
	var target string
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].kind == opRead && ops[i].target != "" {
			target = ops[i].target
			break
		}
	}
	if target == "" {
		return 0, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: tr.h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Shutdown(context.Background())
		<-done
	}()
	c, err := dial(ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.close()
	var resp response
	tr.serve("GET", target, nil) // make sure it is cached
	var local, remote []float64
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		tr.serve("GET", target, nil)
		local = append(local, float64(time.Since(t0))/float64(time.Microsecond))
		t0 = time.Now()
		if err := c.do("GET", target, nil, &resp); err != nil {
			return 0, err
		}
		remote = append(remote, float64(time.Since(t0))/float64(time.Microsecond))
		if resp.status != 200 {
			return 0, fmt.Errorf("transport probe %s: status %d", target, resp.status)
		}
	}
	return median(remote) - median(local), nil
}

// cacheHitNS times ResultCache.Do hits on a full 256-entry cache.
func cacheHitNS() float64 {
	c := server.NewResultCache(server.DefaultCacheEntries)
	keys := make([]string, server.DefaultCacheEntries)
	val := []byte("report")
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x|report|full=false|sketch=false|top=%d", i, i)
		_, _, _ = c.Do(keys[i], func() ([]byte, error) { return val, nil })
	}
	const n = 200000
	var runs []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_, _, _ = c.Do(keys[i%len(keys)], nil)
		}
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(runs)
}

// snapshotMetrics measures the binary snapshot of the largest stored
// trace's frozen partial, and the heap one exact partial costs per job.
func (tr *tracedRun) snapshotMetrics(m *metricSet) error {
	var largest *genTrace
	name := ""
	if tr.w.feed != nil {
		largest, name = tr.w.feed.full, liveTraceName
	} else {
		for _, g := range tr.w.traces {
			if largest == nil || g.tr.Len() > largest.tr.Len() {
				largest = g
			}
		}
		name = largest.name
	}
	v, err := tr.srv.Store().View(name)
	if err != nil {
		return err
	}
	if v.Partial == nil {
		return fmt.Errorf("%s has no frozen partial", name)
	}
	jobs := float64(v.Partial.Jobs())
	var enc, dec []float64
	var b []byte
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if b, err = v.Partial.MarshalBinary(); err != nil {
			return err
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/jobs)
		t0 = time.Now()
		if _, err = core.UnmarshalPartial(b); err != nil {
			return err
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/jobs)
	}
	m.add("core.snapshot.encode_ns_per_job", median(enc), "ns")
	m.add("core.snapshot.decode_ns_per_job", median(dec), "ns")
	m.add("core.snapshot.bytes_per_job", float64(len(b))/jobs, "bytes")

	// Two collections: the first leaves sync.Pool victims that the
	// second would free inside the measurement.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := core.BuildTracePartial(largest.tr, 1, false)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	m.add("core.partial.heap_bytes_per_job", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(largest.tr.Len()), "bytes")
	return nil
}

// traceOverheadPct is the share of the requests' in-process time that
// recording their spans costs.
func (tr *tracedRun) traceOverheadPct() float64 {
	probe := tracer{base: time.Now()}
	const n = 100000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.begin("probe", 0))
	}
	perSpan := float64(time.Since(t0).Nanoseconds()) / n
	var httpNS float64
	spans := 0
	for i := range tr.t.spans {
		s := &tr.t.spans[i]
		if s.Name == "server.http" {
			httpNS += float64(s.dur())
		}
		if s.Req > 0 {
			spans++
		}
	}
	return 100 * ratio(perSpan*float64(spans), httpNS)
}

func (tr *tracedRun) requests() int {
	n := 0
	for i := range tr.t.spans {
		if tr.t.spans[i].Name == "server.http" {
			n++
		}
	}
	return n
}

// writeSpans writes every span as one JSON line to
// <out>/<workload>-<seed>.spans.jsonl.
func (tr *tracedRun) writeSpans(out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(out, fmt.Sprintf("%s-%d.spans.jsonl", tr.w.name, tr.w.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range tr.t.spans {
		if err := enc.Encode(&tr.t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// metricSet collects metrics in print order.
type metricSet struct{ list []metricValue }

func (m *metricSet) add(name string, v float64, unit string) {
	m.list = append(m.list, metricValue{name, v, unit})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfShareLayers are the layers whose self time is reported as a share
// of the requests' in-process time.
var selfShareLayers = []string{
	"server.http", "server.store.view", "server.cache", "storage.scan", "colseg.decode",
	"core.observe", "core.finalize", "core.marshal", "trace.decode", "trace.fingerprint",
	"core.clone", "storage.append",
}

// layerMetrics derives the span-based per-layer metrics.
func (tr *tracedRun) layerMetrics() *metricSet {
	spans := tr.t.spans
	children := make(map[int]time.Duration)
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			children[p] += spans[i].dur()
		}
	}
	// inRequest marks spans under a server.http root.
	inRequest := make([]bool, len(spans)+1)
	durs := make(map[string][]float64)
	total := make(map[string]time.Duration)
	work := make(map[string]int)
	self := make(map[string]time.Duration)
	var httpTotal, requestTotal time.Duration
	var readHTTP, appendHTTP []float64
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			inRequest[s.ID] = s.Name == "server.http"
		} else {
			inRequest[s.ID] = inRequest[s.Parent]
		}
		d := s.dur()
		durs[s.Name] = append(durs[s.Name], float64(d))
		total[s.Name] += d
		work[s.Name] += s.N
		if inRequest[s.ID] {
			self[s.Name] += d - children[s.ID]
		}
		switch s.Name {
		case "server.http":
			httpTotal += d
			if s.Op == "append" {
				appendHTTP = append(appendHTTP, float64(d))
			} else {
				readHTTP = append(readHTTP, float64(d))
			}
		case "request":
			requestTotal += d
		}
	}
	p50 := func(xs []float64, unit time.Duration) float64 {
		return quantile(sortedCopy(xs), 0.5) / float64(unit)
	}
	perJob := func(name string) float64 { return ratio(float64(total[name]), float64(work[name])) }
	m := &metricSet{}
	m.add("server.http.us_p50", p50(readHTTP, time.Microsecond), "us")
	m.add("server.http.append_ms_p50", p50(appendHTTP, time.Millisecond), "ms")
	m.add("server.store.view_us_p50", p50(durs["server.store.view"], time.Microsecond), "us")
	m.add("core.finalize.ms_p50", p50(durs["core.finalize"], time.Millisecond), "ms")
	m.add("core.finalize.ns_per_job", perJob("core.finalize"), "ns")
	m.add("core.marshal.us_p50", p50(durs["core.marshal"], time.Microsecond), "us")
	m.add("core.marshal.bytes_per_report", ratio(float64(work["core.marshal"]), float64(len(durs["core.marshal"]))), "bytes")
	m.add("core.observe.ns_per_job", perJob("core.observe"), "ns")
	m.add("core.merge.us_per_op", ratio(float64(total["core.merge"]), float64(len(durs["core.merge"])))/1e3, "us")
	m.add("core.clone.ns_per_job", perJob("core.clone"), "ns")
	for _, sec := range []string{"summary", "datasize", "timeseries", "names"} {
		m.add("analysis.observe."+sec+".ns_per_job", perJob("analysis.observe."+sec), "ns")
	}
	for _, sec := range []string{"summary", "datasize", "timeseries", "names"} {
		m.add("analysis.finalize."+sec+".us_p50", p50(durs["analysis.finalize."+sec], time.Microsecond), "us")
	}
	m.add("colseg.decode.ns_per_job", perJob("colseg.decode"), "ns")
	m.add("colseg.blocks_read_per_req", ratio(float64(tr.scan.blocks), float64(tr.diskReads)), "count")
	m.add("colseg.blocks_pruned_ratio", ratio(float64(tr.scan.blocksPruned), float64(tr.scan.blocks+tr.scan.blocksPruned)), "ratio")
	m.add("storage.segments_pruned_ratio", ratio(float64(tr.scan.segmentsPruned), float64(tr.scan.segments)), "ratio")
	m.add("storage.scan.ms_p50", p50(durs["storage.scan"], time.Millisecond), "ms")
	m.add("storage.scan.overhead_share", ratio(float64(self["storage.scan"]), float64(total["storage.scan"])), "ratio")
	m.add("storage.append.ms_p50", p50(durs["storage.append"], time.Millisecond), "ms")
	m.add("trace.decode.ns_per_job", perJob("trace.decode"), "ns")
	m.add("trace.fingerprint.ns_per_job", perJob("trace.fingerprint"), "ns")
	// server.http's self time is what the handler spent outside the
	// layer chain: its only child is the request span.
	for _, l := range selfShareLayers {
		m.add(l+".self_share", ratio(float64(self[l]), float64(httpTotal)), "ratio")
	}
	m.add("bench.coverage", ratio(float64(requestTotal), float64(httpTotal)), "ratio")
	return m
}
