package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	swim "repro"
	"repro/internal/server"
	"repro/internal/trace"
)

// Workload names, in BENCHMARK.json order.
const (
	warmSkew     = "warm-skew"
	coldFinalize = "cold-finalize"
	oocWindow    = "ooc-window"
	liveAppend   = "live-append"
)

var workloadNames = []string{warmSkew, coldFinalize, oocWindow, liveAppend}

// Input sizes: 7-day traces of every calibrated workload, and for the
// live feed a 35-day FB-2009 trace whose first three days are uploaded
// at set-up and the rest appended in 15-minute batches (more than a run
// consumes, so the writer never runs dry).
//
// The generator's job count swings by ±15% from seed to seed, which
// would swamp the differences the benchmark exists to detect. So each
// trace is generated at overscaleRate times its profile's rate and
// thinned, evenly in submit order, to a fixed job count: the seed
// changes what the jobs are, not how many there are.
const (
	traceLength    = 7 * 24 * time.Hour
	liveLength     = 35 * 24 * time.Hour
	livePreload    = 3 * 24 * time.Hour
	liveBatch      = 15 * time.Minute
	liveTraceName  = "live"
	liveWorkload   = "FB-2009"
	liveWholeEvery = 4 // every 4th live read is the whole trace
	overscaleRate  = 1.3
	liveJobs       = 170000
)

// traceJobs is the job count of each 7-day trace (~216k in all).
var traceJobs = map[string]int{
	"CC-a": 1100, "CC-b": 16000, "CC-c": 4000, "CC-d": 1200, "CC-e": 7500,
	"FB-2009": 36000, "FB-2010": 150000,
}

// Open-loop rates: a third or less of the closed-loop throughput each
// workload reached on the 2-core runner the baseline was recorded on,
// a moderately loaded service.
const (
	warmSkewRate     = 12000.0
	coldFinalizeRate = 75.0
	oocWindowRate    = 100.0
	liveAppendRate   = 40.0 // batches per second on the writer connection
	liveReadRate     = 80.0 // reads per second on the reader connection
)

// warmVariants are the report variants warm-skew crosses with each
// trace: 7 traces x 6 variants = 42 keys, all inside the result cache.
var warmVariants = []string{"", "top=4", "top=16", "sketch=1", "window=6h", "window=24h"}

// oocTraces are the traces ooc-window reads windows of.
var oocTraces = []string{"CC-b", "FB-2009", "FB-2010"}

// genTrace is one generated input trace with its upload body.
type genTrace struct {
	name string // stored name
	tr   *trace.Trace
	body []byte // JSONL upload body
	fp   string // content fingerprint the server must report
}

// end is the trace's horizon, Start + Length.
func (g *genTrace) end() time.Time { return g.tr.Meta.Start.Add(g.tr.Meta.Length) }

// jobsIn counts the trace's jobs submitted in [from, to).
func (g *genTrace) jobsIn(from, to time.Time) int {
	jobs := g.tr.Jobs
	lo := sort.Search(len(jobs), func(i int) bool { return !jobs[i].SubmitTime.Before(from) })
	hi := sort.Search(len(jobs), func(i int) bool { return !jobs[i].SubmitTime.Before(to) })
	return hi - lo
}

type opKind int

const (
	opRead opKind = iota
	opAppend
)

// op is one request of a workload's sequence.
type op struct {
	kind opKind
	// Reads: the trace, the report variant, and what the response must
	// show. Live reads (liveWhole, or a lookback) are resolved against
	// the feed's acknowledged progress when they are sent.
	tr        *genTrace
	top       int           // 0: the server default
	sketch    bool          // sketch=1
	trailing  time.Duration // window=D: the trailing D of the trace's horizon
	from, to  time.Time     // explicit window; zero for none
	lookback  time.Duration // a live window's length back from the acknowledged end
	liveWhole bool
	target    string
	expect    expect
	// Appends: the batch index into the feed.
	batch int
	// seq numbers the op within its stream; due is its open-loop send
	// time from the phase start.
	seq int
	due time.Duration
}

// expect is the serving path a response must report, so that a
// workload cannot silently drift onto another path: cache is the
// required X-Cache, analysis the required X-Analysis on a MISS (or alt,
// when set), and scan requires X-Scan-* evidence.
type expect struct {
	cache    string
	analysis string
	alt      string
	scan     bool
}

// check verifies a response against the op's expected serving path.
func (o *op) check(r *response) error {
	if o.kind == opAppend {
		if r.status != 200 {
			return fmt.Errorf("append batch %d: status %d: %s", o.batch, r.status, snippet(r.body))
		}
		return nil
	}
	if r.status != 200 {
		return fmt.Errorf("%s: status %d: %s", o.target, r.status, snippet(r.body))
	}
	e := o.expect
	if r.cache != e.cache {
		return fmt.Errorf("%s: X-Cache %q, want %s", o.target, r.cache, e.cache)
	}
	if e.cache == "HIT" {
		return nil
	}
	if r.analysis != e.analysis && (e.alt == "" || r.analysis != e.alt) {
		return fmt.Errorf("%s: X-Analysis %q, want %q", o.target, r.analysis, e.analysis)
	}
	if e.scan && r.analysis == e.analysis && !r.scan.present {
		return fmt.Errorf("%s: no X-Scan-* evidence on an out-of-core read", o.target)
	}
	return nil
}

func snippet(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

// reportTarget renders a report request target.
func reportTarget(name string, q url.Values) string {
	t := "/v1/traces/" + url.PathEscape(name) + "/report"
	if len(q) > 0 {
		t += "?" + q.Encode()
	}
	return t
}

// stream is one arrival process of a workload: its connections, its
// Poisson rate, and the key sequence its requests follow.
type stream struct {
	name    string
	conns   int
	rate    float64
	arrival *rand.Rand
	next    func() *op
	// saturated marks the stream the closed loop drives alone: its
	// nominal saturated rate (requests per second on the 2-core runner
	// the baseline was recorded on) sizes the phase's request count.
	saturated float64
	drawn     int
	clock     time.Duration // next arrival, from the current phase start
	started   bool
}

// draw returns the stream's next op (nil when the sequence is done).
func (s *stream) draw() *op {
	o := s.next()
	if o != nil {
		o.seq = s.drawn
		s.drawn++
	}
	return o
}

// schedule draws the stream's next ops due before until (measured from
// the phase start), continuing the stream's key sequence and its
// arrival process across phases.
func (s *stream) schedule(until time.Duration) []*op {
	var out []*op
	if !s.started {
		s.started = true
		s.clock = s.gap()
	}
	for s.clock < until {
		o := s.draw()
		if o == nil {
			break
		}
		o.due = s.clock
		out = append(out, o)
		s.clock += s.gap()
	}
	s.clock -= until
	return out
}

// gap draws one exponential inter-arrival time.
func (s *stream) gap() time.Duration {
	return time.Duration(s.arrival.ExpFloat64() / s.rate * float64(time.Second))
}

// workload is one traffic mix: its inputs, the swimd it runs against,
// and its request streams.
type workload struct {
	name   string
	seed   uint64
	traces []*genTrace // uploaded at set-up
	// swimd configuration: durable storage, the hot-tier budget, the
	// compaction interval, and a SIGTERM+restart in set-up so recovery
	// runs.
	durable      bool
	maxTotalJobs int
	compact      time.Duration
	restart      bool
	streams      []*stream
	// warm is sent once, before the warm-up traffic: every key the
	// timed phase may hit.
	warm []*op
	// verifyEvery samples which responses are checked byte-for-byte
	// against an in-process analysis (1 = every response).
	verifyEvery int
	feed        *liveFeed
}

// serverConfig is the workload's swimd configuration as the server
// package takes it (the in-process runs use it).
func (w *workload) serverConfig(dataDir string) server.Config {
	cfg := server.Config{MaxTotalJobs: w.maxTotalJobs, CompactInterval: w.compact}
	if w.durable {
		cfg.DataDir = dataDir
	}
	return cfg
}

// swimdArgs renders the same configuration as swimd flags.
func (w *workload) swimdArgs(dataDir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-quiet"}
	if w.durable {
		args = append(args, "-data", dataDir)
	}
	if w.maxTotalJobs > 0 {
		args = append(args, "-max-total-jobs", strconv.Itoa(w.maxTotalJobs))
	}
	if w.compact > 0 {
		args = append(args, "-compact", w.compact.String())
	}
	return args
}

// genSeed maps the benchmark seed to a generator seed (the generator
// treats 0 as 1, so seeds 0 and 1 would otherwise collide).
func genSeed(seed uint64) int64 { return int64(seed%(1<<62)) + 1 }

// newRand returns a PCG stream for one purpose of one seed.
func newRand(seed uint64, purpose string) *rand.Rand {
	var salt uint64 = 14695981039346656037
	for i := 0; i < len(purpose); i++ {
		salt = (salt ^ uint64(purpose[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, salt))
}

// generate builds a named trace of jobs jobs and its upload body.
func generate(workload, name string, seed uint64, length time.Duration, jobs int) (*genTrace, error) {
	tr, err := swim.Generate(swim.GenerateOptions{Workload: workload, Seed: genSeed(seed), Duration: length, RateScale: overscaleRate})
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", workload, err)
	}
	thin(tr, jobs)
	return newGenTrace(name, tr)
}

// thin keeps n of the trace's jobs, evenly spaced in submit order (all
// of them when it has no more than n).
func thin(t *trace.Trace, n int) {
	m := len(t.Jobs)
	if m <= n {
		return
	}
	kept := make([]*trace.Job, n)
	for k := range kept {
		kept[k] = t.Jobs[k*m/n]
	}
	t.Jobs = kept
}

func newGenTrace(name string, tr *trace.Trace) (*genTrace, error) {
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, tr); err != nil {
		return nil, err
	}
	fp, err := tr.Fingerprint()
	if err != nil {
		return nil, err
	}
	return &genTrace{name: name, tr: tr, body: buf.Bytes(), fp: fp}, nil
}

// generateAll builds the seven 7-day traces.
func generateAll(seed uint64) ([]*genTrace, error) {
	var out []*genTrace
	for _, name := range swim.Workloads() {
		g, err := generate(name, name, seed, traceLength, traceJobs[name])
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// newWorkload generates a workload's inputs from the seed and wires its
// request streams. The same seed always yields the same inputs and the
// same request sequence.
func newWorkload(name string, seed uint64) (*workload, error) {
	w := &workload{name: name, seed: seed, verifyEvery: 20}
	var err error
	switch name {
	case warmSkew:
		if w.traces, err = generateAll(seed); err != nil {
			return nil, err
		}
		w.verifyEvery = 1
		w.warmSkew()
	case coldFinalize:
		if w.traces, err = generateAll(seed); err != nil {
			return nil, err
		}
		w.coldFinalize()
	case oocWindow:
		if w.traces, err = generateAll(seed); err != nil {
			return nil, err
		}
		w.durable, w.maxTotalJobs, w.restart = true, 2000, true
		w.oocWindow()
	case liveAppend:
		w.durable, w.compact = true, 2*time.Second
		// Every 25th read: every 4th of those is a whole-trace read,
		// whose in-process analysis rebuilds the whole prefix.
		w.verifyEvery = 25
		if err := w.liveAppend(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

// byName returns the generated trace stored under name.
func (w *workload) byName(name string) *genTrace {
	for _, g := range w.traces {
		if g.name == name {
			return g
		}
	}
	return nil
}

// warmSkew: traces drawn Zipf(s=1) over their Table-1 order as the
// popularity rank, crossed with six report variants; after the warm
// pass every request must be a cache hit. (The rank is fixed, not
// seeded: which trace is hottest sets the mean body size, and that
// must not change from seed to seed.)
func (w *workload) warmSkew() {
	keys := newRand(w.seed, "warm-skew/keys")
	ranked := w.traces
	cdf := make([]float64, len(ranked))
	total := 0.0
	for i := range ranked {
		total += 1 / float64(i+1)
		cdf[i] = total
	}
	read := func(g *genTrace, variant string, e expect) *op {
		o := &op{kind: opRead, tr: g, expect: e}
		q := url.Values{}
		if variant != "" {
			k, v, _ := strings.Cut(variant, "=")
			q.Set(k, v)
			switch k {
			case "top":
				o.top, _ = strconv.Atoi(v)
			case "sketch":
				o.sketch = true
			case "window":
				o.trailing, _ = time.ParseDuration(v)
			}
		}
		o.target = reportTarget(g.name, q)
		return o
	}
	for _, g := range w.traces {
		for _, v := range warmVariants {
			e := expect{cache: "MISS", analysis: "ingest-partial"}
			switch {
			case v == "sketch=1":
				e.analysis = "scan"
			case strings.HasPrefix(v, "window="):
				e.analysis = "window-scan"
			}
			w.warm = append(w.warm, read(g, v, e))
		}
	}
	next := func() *op {
		u := keys.Float64() * total
		i := sort.SearchFloat64s(cdf, u)
		if i >= len(ranked) {
			i = len(ranked) - 1
		}
		return read(ranked[i], warmVariants[keys.IntN(len(warmVariants))], expect{cache: "HIT"})
	}
	w.streams = []*stream{{name: "read", conns: 2, saturated: 33000, rate: warmSkewRate, arrival: newRand(w.seed, "warm-skew/arrivals"), next: next}}
}

// coldFinalize: traces round-robin, each request a (trace, top=N)
// pair never asked before, so every one finalizes the frozen ingest
// partial and marshals.
func (w *workload) coldFinalize() {
	order := w.traces
	n := 0
	next := func() *op {
		g := order[n%len(order)]
		top := 9 + n/len(order) // top=8 is the default; every N is new
		n++
		q := url.Values{"top": {strconv.Itoa(top)}}
		return &op{kind: opRead, tr: g, top: top, target: reportTarget(g.name, q),
			expect: expect{cache: "MISS", analysis: "ingest-partial"}}
	}
	w.streams = []*stream{{name: "read", conns: 2, saturated: 210, rate: coldFinalizeRate, arrival: newRand(w.seed, "cold-finalize/arrivals"), next: next}}
}

// oocWindow: ad-hoc hour-aligned windows of lognormal length (median
// 6h, sigma 0.6, clipped to 1-72h) inside the span of three
// disk-resident traces, never repeated and never empty, so every
// request scans segments.
func (w *workload) oocWindow() {
	keys := newRand(w.seed, "ooc-window/keys")
	var targets []*genTrace
	for _, name := range oocTraces {
		targets = append(targets, w.byName(name))
	}
	seen := make(map[string]bool)
	next := func() *op {
		for {
			g := targets[keys.IntN(len(targets))]
			hours := int(math.Round(math.Exp(math.Log(6) + 0.6*keys.NormFloat64())))
			hours = min(max(hours, 1), 72)
			spanHours := int(g.tr.Meta.Length / time.Hour)
			from := g.tr.Meta.Start.Add(time.Duration(keys.IntN(spanHours-hours+1)) * time.Hour)
			to := from.Add(time.Duration(hours) * time.Hour)
			key := fmt.Sprintf("%s|%d|%d", g.name, from.Unix(), to.Unix())
			if seen[key] || g.jobsIn(from, to) == 0 {
				continue
			}
			seen[key] = true
			q := url.Values{"from": {strconv.FormatInt(from.Unix(), 10)}, "to": {strconv.FormatInt(to.Unix(), 10)}}
			return &op{kind: opRead, tr: g, from: from.UTC(), to: to.UTC(), target: reportTarget(g.name, q),
				expect: expect{cache: "MISS", analysis: "window-disk-scan", scan: true}}
		}
	}
	w.streams = []*stream{{name: "read", conns: 2, saturated: 600, rate: oocWindowRate, arrival: newRand(w.seed, "ooc-window/arrivals"), next: next}}
}

// liveFeed is the live-append input: the 35-day trace cut into
// 15-minute JSONL batches, and the acknowledged progress reads are
// resolved against.
type liveFeed struct {
	full    *genTrace // the one-shot trace the feed must add up to
	preload *genTrace // the first days, uploaded at set-up
	batches []liveBatchData
	first   int // first batch the writer appends
	acked   atomic.Int64
}

type liveBatchData struct {
	end  time.Time // slot end; every job of batches <= this one is before it
	jobs int       // cumulative jobs through this batch
	body []byte
}

// ackedEnd is the slot end of the last acknowledged batch.
func (f *liveFeed) ackedEnd() time.Time { return f.batches[f.acked.Load()].end }

// prefix returns the one-shot trace of every job through batch b.
func (f *liveFeed) prefix(b int) *trace.Trace {
	t := trace.New(f.full.tr.Meta)
	t.Jobs = f.full.tr.Jobs[:f.batches[b].jobs]
	return t
}

// batchOf returns the batch whose cumulative job count is jobs, or -1.
func (f *liveFeed) batchOf(jobs int) int {
	i := sort.Search(len(f.batches), func(i int) bool { return f.batches[i].jobs >= jobs })
	if i < len(f.batches) && f.batches[i].jobs == jobs {
		return i
	}
	return -1
}

// liveAppend: a writer streams the trace's batches to the append
// endpoint while a reader asks for the live report — every 4th request
// the whole trace (a fresh finalize after every batch), the rest the
// trailing hour or two of acknowledged data. The closed loop drives the
// writer alone, back to back.
func (w *workload) liveAppend() error {
	full, err := generate(liveWorkload, liveTraceName, w.seed, liveLength, liveJobs)
	if err != nil {
		return err
	}
	meta := full.tr.Meta
	f := &liveFeed{full: full}
	jobs := full.tr.Jobs
	i := 0
	for end := meta.Start.Add(liveBatch); !end.After(meta.Start.Add(meta.Length)); end = end.Add(liveBatch) {
		bt := trace.New(meta)
		for i < len(jobs) && jobs[i].SubmitTime.Before(end) {
			bt.Add(jobs[i])
			i++
		}
		if bt.Len() == 0 {
			continue // an empty slot rides with the next batch
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, bt); err != nil {
			return err
		}
		f.batches = append(f.batches, liveBatchData{end: end, jobs: i, body: buf.Bytes()})
	}
	if i != len(jobs) {
		return fmt.Errorf("live feed: %d jobs fall past the trace horizon", len(jobs)-i)
	}
	preloadEnd := meta.Start.Add(livePreload)
	for f.first < len(f.batches) && !f.batches[f.first].end.After(preloadEnd) {
		f.first++
	}
	if f.first == 0 {
		return fmt.Errorf("live feed: the preloaded days hold no jobs")
	}
	pre := trace.New(meta)
	pre.Jobs = jobs[:f.batches[f.first-1].jobs]
	if f.preload, err = newGenTrace(liveTraceName, pre); err != nil {
		return err
	}
	f.acked.Store(int64(f.first - 1))
	w.feed = f
	w.traces = []*genTrace{f.preload}

	b := f.first
	appendNext := func() *op {
		if b >= len(f.batches) {
			return nil
		}
		o := &op{kind: opAppend, batch: b, target: "/v1/traces/" + liveTraceName + "/append"}
		b++
		return o
	}
	n := 0
	readNext := func() *op {
		o := &op{kind: opRead, tr: full, liveWhole: n%liveWholeEvery == 0}
		if o.liveWhole {
			// top=N never repeats, so every whole read finalizes.
			o.top = 9 + n/liveWholeEvery
			o.expect = expect{cache: "MISS", analysis: "ingest-partial"}
		} else {
			// The trailing window's length steps through an hour of
			// minutes, so no two reads of one committed state share a key.
			o.lookback = time.Hour + time.Duration(n%60)*time.Minute
			o.expect = expect{cache: "MISS", analysis: "window-disk-scan", scan: true}
		}
		n++
		return o
	}
	w.streams = []*stream{
		{name: "append", conns: 1, saturated: 110, rate: liveAppendRate, arrival: newRand(w.seed, "live-append/appends"), next: appendNext},
		{name: "read", conns: 1, rate: liveReadRate, arrival: newRand(w.seed, "live-append/reads"), next: readNext},
	}
	return nil
}

// resolve fills in a live read's target from the acknowledged progress:
// the whole trace, or the trailing window of acknowledged data (widened
// an hour at a time until it holds a job, since a report of no jobs is
// an error by contract).
func (f *liveFeed) resolve(o *op) {
	if o.liveWhole {
		o.target = reportTarget(liveTraceName, url.Values{"top": {strconv.Itoa(o.top)}})
		return
	}
	// Until an append commits, the live trace is the resident upload
	// (a batch in flight may already have moved it to disk).
	if f.acked.Load() < int64(f.first) {
		o.expect.alt = "window-scan"
	}
	end := f.ackedEnd()
	from := end.Add(-o.lookback)
	for from.After(f.full.tr.Meta.Start) && f.full.jobsIn(from, end) == 0 {
		from = from.Add(-time.Hour)
	}
	o.from, o.to = from.UTC(), end.UTC()
	q := url.Values{"from": {strconv.FormatInt(from.Unix(), 10)}, "to": {strconv.FormatInt(end.Unix(), 10)}}
	o.target = reportTarget(liveTraceName, q)
}
