package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Run shape: set-up is repeated at least setupMinReps times and until
// setupMinTime has passed (a cheap set-up is repeated more, so its
// median is as steady as a costly one's), at most setupMaxReps, and the
// median reported; warmup is untimed traffic at the workload's rates;
// the measured seconds split into an open loop at the fixed rates and a
// closed loop, each cut into thirds whose median is reported.
const (
	setupMinReps = 3
	setupMaxReps = 15
	setupMinTime = 2 * time.Second
	warmup       = 2 * time.Second
	openShare    = 0.7
	thirds       = 3
	// pipelineDepth is how many requests each closed-loop connection
	// keeps in flight (HTTP/1.1 pipelining): enough that the server never
	// idles on a client round trip, so the closed loop saturates swimd
	// and not the loopback ping-pong.
	pipelineDepth = 8
)

// sample is one sent request.
type sample struct {
	op              *op
	due, sent, done time.Duration // from the phase start
	late            time.Duration // how late the generator sent it
	ok              bool
	crc             uint32
	body            []byte // kept only for whole-trace live reads picked for verification
}

// instance is one running server under test.
type instance interface {
	address() string
	stop() error // graceful shutdown, as an operator would
	kill()
	peakRSSMB() (float64, error)
	// cpuSeconds is the user+system CPU time the server has used so far
	// (its whole life, once it has exited).
	cpuSeconds() (float64, error)
}

// launcher starts a server under test for a workload, with its durable
// state (if any) under dataDir, and returns once it listens.
type launcher func(w *workload, dataDir string) (instance, error)

// swimdLauncher runs the swimd binary at path as a child process.
func swimdLauncher(path string) launcher {
	return func(w *workload, dataDir string) (instance, error) {
		return startSwimd(path, w.swimdArgs(dataDir))
	}
}

// runner drives one untraced run against a server under test.
type runner struct {
	w       *workload
	launch  launcher
	dataDir string
	child   instance

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	errs      []string
}

// fail counts a failed, refused or wrong response and keeps the first
// few reasons for the report.
func (r *runner) fail(err error) {
	r.failed.Add(1)
	r.errMu.Lock()
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
	r.errMu.Unlock()
}

// runResult is what one run measured.
type runResult struct {
	metrics   []metricValue
	notes     []string // extra text lines: wall-clock timings, sample counts, ...
	attempted int
	failed    int
	errs      []string
}

type metricValue struct {
	name  string
	value float64
	unit  string
}

// phaseResult is one measured phase: the samples per stream, and the
// server's CPU time at the start and after each third of the phase's
// requests completed.
type phaseResult struct {
	samples [][]sample
	cpu     [thirds + 1]float64
	counts  [thirds]int
	wall    time.Duration
}

// cpuPerRequest is the server's CPU seconds per completed request, the
// median over the phase's thirds.
func (p *phaseResult) cpuPerRequest() float64 {
	var per []float64
	for k := 0; k < thirds; k++ {
		if p.counts[k] > 0 {
			per = append(per, (p.cpu[k+1]-p.cpu[k])/float64(p.counts[k]))
		}
	}
	return median(per)
}

// runLoad performs the untraced run: set-up, warm-up, open loop, closed
// loop, and the correctness checks.
func runLoad(w *workload, launch launcher, work string, seconds float64) (*runResult, error) {
	r := &runner{w: w, launch: launch, dataDir: filepath.Join(work, fmt.Sprintf("%s-%d", w.name, w.seed))}
	// Spare processors: a pacer returning from its sleep must find one
	// idle rather than wait out another goroutine's time slice. The OS
	// still shares the same cores between the threads.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4 * runtime.NumCPU()))
	if err := os.RemoveAll(r.dataDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dataDir)
	defer func() {
		if r.child != nil {
			r.child.kill()
		}
	}()

	// Set-up: spawn -> traces ingested (-> restart and recovery) ->
	// /healthz ready, several times; the last instance is measured.
	var setupCPU, setupWall []float64
	setupStart := time.Now()
	for rep := 0; rep < setupMaxReps && (rep < setupMinReps || time.Since(setupStart) < setupMinTime); rep++ {
		if r.child != nil {
			if err := r.child.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up instance: %w", err)
			}
			r.child = nil
			if err := os.RemoveAll(r.dataDir); err != nil {
				return nil, err
			}
		}
		cpu, wall, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, cpu)
		setupWall = append(setupWall, wall.Seconds())
	}

	// Warm-up: every key the timed phase may hit, then untimed traffic.
	c, err := dial(r.child.address())
	if err != nil {
		return nil, err
	}
	var resp response
	for _, o := range w.warm {
		r.send(c, o, &resp)
	}
	c.close()
	if _, err := r.openPhase(warmup); err != nil {
		return nil, err
	}

	openLen := time.Duration(seconds * openShare * float64(time.Second))
	closedLen := time.Duration(seconds*float64(time.Second)) - openLen
	// No collections while measuring: the generator allocates little, and
	// a mark phase would take a processor from it mid-phase.
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	gcBefore := r.serverGCs()
	open, err := r.openPhase(openLen)
	if err != nil {
		return nil, err
	}
	gcOpen := r.serverGCs() - gcBefore
	closed, err := r.closedPhase(closedLen)
	if err != nil {
		return nil, err
	}
	debug.SetGCPercent(gc)

	rss, err := r.child.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if w.feed != nil {
		r.checkLive()
	}
	r.verify(append(append([][]sample(nil), open.samples...), closed.samples...))
	if err := r.child.stop(); err != nil {
		r.fail(fmt.Errorf("shutdown: %w", err))
	}
	r.child = nil

	res := &runResult{attempted: int(r.attempted.Load()), failed: int(r.failed.Load()), errs: r.errs}
	res.metrics = []metricValue{
		{"cpu_ms_per_req", 1000 * open.cpuPerRequest(), "ms"},
		{"setup_s", median(setupCPU), "s"},
		{"peak_rss_mb", rss, "MiB"},
	}
	completed := 0
	for _, ss := range closed.samples {
		for _, s := range ss {
			if s.ok {
				completed++
			}
		}
	}
	res.notes = append(res.notes,
		fmt.Sprintf("set-up wall time %v s (median of %d)", median(setupWall), len(setupWall)),
		fmt.Sprintf("closed loop: %v req/s wall-clock, %v req per swimd CPU-second, %d requests in %v",
			float64(completed)/closed.wall.Seconds(), ratio(1, closed.cpuPerRequest()), completed, closed.wall.Round(time.Millisecond)))
	for si, s := range w.streams {
		p50, p99, n := latencyStats(open.samples[si], openLen)
		res.notes = append(res.notes, fmt.Sprintf("%s latency from due time: p50 %v ms, p99 %v ms (%d samples, highest resolvable percentile p%g)",
			s.name, p50, p99, n, 100*highestResolvable(n)))
	}
	res.notes = append(res.notes,
		fmt.Sprintf("load generator lateness p99 %v ms", lateness(open.samples)),
		fmt.Sprintf("swimd garbage collections during the open loop: %d", gcOpen))
	return res, nil
}

// setup starts a fresh swimd, uploads the workload's traces, restarts
// it when the workload measures recovery, and waits for /healthz. It
// returns the CPU time the server processes spent (including the first
// process's shutdown when it restarts) and the wall time.
func (r *runner) setup() (float64, time.Duration, error) {
	start := time.Now()
	ch, err := r.launch(r.w, r.dataDir)
	if err != nil {
		return 0, 0, err
	}
	r.child = ch
	c, err := dial(ch.address())
	if err != nil {
		return 0, 0, err
	}
	defer func() { c.close() }()
	var resp response
	for _, g := range r.w.traces {
		r.attempted.Add(1)
		if err := c.do("POST", "/v1/traces/"+g.name, g.body, &resp); err != nil {
			return 0, 0, fmt.Errorf("uploading %s: %w", g.name, err)
		}
		if err := checkIdentity(&resp, 201, g.fp, g.tr.Len()); err != nil {
			return 0, 0, fmt.Errorf("uploading %s: %w", g.name, err)
		}
	}
	cpu := 0.0
	if r.w.restart {
		c.close()
		if err := ch.stop(); err != nil {
			return 0, 0, fmt.Errorf("restart: %w", err)
		}
		if cpu, err = ch.cpuSeconds(); err != nil {
			return 0, 0, err
		}
		if r.child, err = r.launch(r.w, r.dataDir); err != nil {
			return 0, 0, err
		}
		if c, err = dial(r.child.address()); err != nil {
			return 0, 0, err
		}
	}
	r.attempted.Add(1)
	if err := c.do("GET", "/healthz", nil, &resp); err != nil || resp.status != 200 {
		return 0, 0, fmt.Errorf("healthz: status %d, %v", resp.status, err)
	}
	wall := time.Since(start)
	ready, err := r.child.cpuSeconds()
	if err != nil {
		return 0, 0, err
	}
	// After the clock stops: every trace must be served with the
	// identity it was uploaded with (after a restart, as recovered).
	for _, g := range r.w.traces {
		r.attempted.Add(1)
		if err := c.do("GET", "/v1/traces/"+g.name, nil, &resp); err != nil {
			return 0, 0, err
		}
		if err := checkIdentity(&resp, 200, g.fp, g.tr.Len()); err != nil {
			return 0, 0, fmt.Errorf("%s after set-up: %w", g.name, err)
		}
	}
	return cpu + ready, wall, nil
}

// checkIdentity verifies a trace identity response.
func checkIdentity(resp *response, status int, fp string, jobs int) error {
	if resp.status != status {
		return fmt.Errorf("status %d, want %d: %s", resp.status, status, snippet(resp.body))
	}
	var id liveIdentity
	if err := json.Unmarshal(resp.body, &id); err != nil {
		return err
	}
	if id.Fingerprint != fp || id.Jobs != jobs {
		return fmt.Errorf("stored as %d jobs / %.12s, generated %d jobs / %.12s", id.Jobs, id.Fingerprint, jobs, fp)
	}
	return nil
}

// send issues one op on c and checks the response; it returns whether
// the response was correct.
func (r *runner) send(c *conn, o *op, resp *response) bool {
	r.attempted.Add(1)
	method, target, body := r.request(o)
	return r.settle(o, resp, c.do(method, target, body, resp))
}

// request renders an op as an HTTP request, resolving a live read
// against the feed's acknowledged progress.
func (r *runner) request(o *op) (method, target string, body []byte) {
	if o.kind == opAppend {
		return "POST", o.target, r.w.feed.batches[o.batch].body
	}
	if o.liveWhole || o.lookback > 0 {
		r.w.feed.resolve(o)
	}
	return "GET", o.target, nil
}

// settle checks one response (err is its transport error) and reports
// whether it was correct.
func (r *runner) settle(o *op, resp *response, err error) bool {
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", o.target, err))
		return false
	}
	if err := o.check(resp); err != nil {
		r.fail(err)
		return false
	}
	if o.kind == opAppend {
		r.w.feed.acked.Store(int64(o.batch))
	}
	return true
}

// nanosleep sleeps on the calling OS thread. Go's timers wake sub-
// millisecond sleeps about 1ms late, which would swamp a warm hit's
// latency in an open loop; a raw nanosleep with a 1ns timer slack
// wakes within microseconds without spinning a core.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pinPacer locks the goroutine to its thread and sets the thread's
// timer slack to 1ns; undo with runtime.UnlockOSThread.
func pinPacer() {
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		nanosleep(d)
	}
}

// meter samples the server's CPU time as a phase's requests complete:
// at the start, and each time another third of them has completed.
type meter struct {
	r     *runner
	total int
	done  atomic.Int64
	mu    sync.Mutex
	res   *phaseResult
	err   error
}

func (r *runner) newMeter(total int) (*meter, error) {
	m := &meter{r: r, total: total, res: &phaseResult{}}
	cpu, err := r.child.cpuSeconds()
	m.res.cpu[0] = cpu
	return m, err
}

// completed counts one finished request and takes a CPU sample when it
// closes a third.
func (m *meter) completed() {
	n := int(m.done.Add(1))
	for k := 1; k <= thirds; k++ {
		if n == k*m.total/thirds && m.total >= thirds {
			cpu, err := m.r.child.cpuSeconds()
			m.mu.Lock()
			m.res.cpu[k] = cpu
			m.res.counts[k-1] = k*m.total/thirds - (k-1)*m.total/thirds
			if err != nil {
				m.err = err
			}
			m.mu.Unlock()
		}
	}
}

// finish closes the thirds a phase cut short never reached, with what
// did complete.
func (m *meter) finish() (*phaseResult, error) {
	n := int(m.done.Load())
	for k := 1; k <= thirds; k++ {
		lo := (k - 1) * m.total / thirds
		if m.res.counts[k-1] == 0 && n > lo {
			cpu, err := m.r.child.cpuSeconds()
			if err != nil {
				return nil, err
			}
			m.res.cpu[k], m.res.counts[k-1] = cpu, n-lo
			break
		}
	}
	return m.res, m.err
}

// openPhase sends every stream's arrivals due within length at their
// due times, on the stream's connections. A request whose connections
// are all busy waits, and the wait counts in its latency, which is
// timed from the due time. Requests not sent within twice the phase's
// length (plus a grace period) are dropped unsent, so an overloaded
// host cannot stretch a run without bound.
func (r *runner) openPhase(length time.Duration) (*phaseResult, error) {
	streams := r.w.streams
	sched := make([][]*op, len(streams))
	total := 0
	for si, s := range streams {
		sched[si] = s.schedule(length)
		total += len(sched[si])
	}
	m, err := r.newMeter(total)
	if err != nil {
		return nil, err
	}
	conns := make([][]*conn, len(streams))
	for si, s := range streams {
		if conns[si], err = r.dialN(s.conns); err != nil {
			for _, cs := range conns {
				for _, c := range cs {
					c.close()
				}
			}
			return nil, err
		}
	}
	start := time.Now()
	base := start.Add(10 * time.Millisecond)
	giveUp := base.Add(2*length + 10*time.Second)
	out := make([][]sample, len(streams))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for si := range streams {
		var next atomic.Int64
		for _, c := range conns[si] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.close()
				pinPacer()
				defer runtime.UnlockOSThread()
				var resp response
				var mine []sample
				var free time.Duration // when this connection last became free
				for {
					i := int(next.Add(1) - 1)
					if i >= len(sched[si]) || time.Now().After(giveUp) {
						break
					}
					o := sched[si][i]
					sleepUntil(base.Add(o.due))
					smp := r.measure(c, o, &resp, base)
					smp.late = smp.sent - max(o.due, free)
					free = smp.done
					mine = append(mine, smp)
					m.completed()
				}
				mu.Lock()
				out[si] = append(out[si], mine...)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	m.res.samples, m.res.wall = out, time.Since(start)
	return m.finish()
}

// closedPhase saturates the server with the closed stream alone: the
// stream's next requests, as many as its nominal saturated rate
// completes in length, pipelineDepth at a time on each of its
// connections. The request count is fixed, not the time, so the work
// measured does not depend on how fast the host runs; a host too slow
// to finish within three times the length (plus a grace period) cuts
// the phase short.
func (r *runner) closedPhase(length time.Duration) (*phaseResult, error) {
	var s *stream
	si := 0
	for i, st := range r.w.streams {
		if st.saturated > 0 {
			s, si = st, i
		}
	}
	var ops []*op
	for len(ops) < int(s.saturated*length.Seconds()) {
		o := s.draw()
		if o == nil {
			break
		}
		ops = append(ops, o)
	}
	m, err := r.newMeter(len(ops))
	if err != nil {
		return nil, err
	}
	conns, err := r.dialN(s.conns)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	giveUp := start.Add(3*length + 10*time.Second)
	out := make([][]sample, len(r.w.streams))
	var mu sync.Mutex
	var wg sync.WaitGroup
	var next atomic.Int64
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			var resp response
			var mine []sample
			for time.Now().Before(giveUp) {
				i := int(next.Add(pipelineDepth) - pipelineDepth)
				if i >= len(ops) {
					break
				}
				for _, smp := range r.pipeline(c, ops[i:min(i+pipelineDepth, len(ops))], &resp, start) {
					mine = append(mine, smp)
					m.completed()
				}
			}
			mu.Lock()
			out[si] = append(out[si], mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	m.res.samples, m.res.wall = out, time.Since(start)
	return m.finish()
}

// dialN opens n connections to the server (none when one fails).
func (r *runner) dialN(n int) ([]*conn, error) {
	var cs []*conn
	for k := 0; k < n; k++ {
		c, err := dial(r.child.address())
		if err != nil {
			for _, c := range cs {
				c.close()
			}
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// measure sends one op and records its timing and body checksum.
func (r *runner) measure(c *conn, o *op, resp *response, base time.Time) sample {
	smp := sample{op: o, due: o.due, sent: time.Since(base)}
	smp.ok = r.send(c, o, resp)
	smp.done = time.Since(base)
	r.record(&smp, resp)
	return smp
}

// pipeline sends a batch of ops back to back on c and reads their
// responses in order. After a transport error the rest of the batch
// fails with it.
func (r *runner) pipeline(c *conn, ops []*op, resp *response, base time.Time) []sample {
	sent := time.Since(base)
	for _, o := range ops {
		r.attempted.Add(1)
		c.write(r.request(o))
	}
	err := c.flush()
	out := make([]sample, 0, len(ops))
	for _, o := range ops {
		if err == nil {
			err = c.read(resp)
		}
		smp := sample{op: o, due: sent, sent: sent}
		smp.ok = r.settle(o, resp, err)
		smp.done = time.Since(base)
		r.record(&smp, resp)
		out = append(out, smp)
	}
	return out
}

// record keeps what verification needs from a correct response.
func (r *runner) record(smp *sample, resp *response) {
	if !smp.ok {
		return
	}
	o := smp.op
	smp.crc = bodyCRC(resp.body)
	if o.liveWhole && o.seq%r.w.verifyEvery == 0 {
		smp.body = append([]byte(nil), resp.body...)
	}
}

// verify checks the sampled responses byte-for-byte against the
// in-process analysis.
func (r *runner) verify(phases [][]sample) {
	or := newOracle()
	for _, ss := range phases {
		for i := range ss {
			s := &ss[i]
			if !s.ok || s.op.kind != opRead || s.op.seq%r.w.verifyEvery != 0 {
				continue
			}
			jobs := 0
			if s.op.liveWhole {
				var err error
				if jobs, err = reportJobs(s.body); err != nil {
					r.fail(fmt.Errorf("%s: %w", s.op.target, err))
					continue
				}
			}
			want, err := or.expected(r.w, s.op, jobs)
			if err != nil {
				r.fail(fmt.Errorf("%s: in-process analysis: %w", s.op.target, err))
				continue
			}
			if bodyCRC(want) != s.crc {
				r.fail(fmt.Errorf("%s: body differs from the in-process analysis", s.op.target))
			}
		}
	}
}

// serverGCs reads how many garbage collections the server has run
// (0 when /v1/stats cannot say).
func (r *runner) serverGCs() int {
	c, err := dial(r.child.address())
	if err != nil {
		return 0
	}
	defer c.close()
	var resp response
	if err := c.do("GET", "/v1/stats", nil, &resp); err != nil {
		return 0
	}
	var st struct {
		Runtime struct {
			NumGC int `json:"num_gc"`
		} `json:"runtime"`
	}
	_ = json.Unmarshal(resp.body, &st)
	return st.Runtime.NumGC
}

// checkLive compares the live trace's final identity and report with
// the one-shot upload of the same jobs.
func (r *runner) checkLive() {
	c, err := dial(r.child.address())
	if err != nil {
		r.fail(err)
		return
	}
	defer c.close()
	var resp response
	r.attempted.Add(2)
	if err := c.do("GET", "/v1/traces/"+liveTraceName, nil, &resp); err != nil || resp.status != 200 {
		r.fail(fmt.Errorf("live identity: status %d, %v", resp.status, err))
		return
	}
	info := append([]byte(nil), resp.body...)
	if err := c.do("GET", reportTarget(liveTraceName, nil), nil, &resp); err != nil || resp.status != 200 {
		r.fail(fmt.Errorf("live report: status %d, %v", resp.status, err))
		return
	}
	if err := checkLiveFinal(r.w.feed, info, resp.body); err != nil {
		r.fail(err)
	}
}

// latencyStats reports an open loop's latency in milliseconds, timed
// from each request's due time: p50 is the median of the thirds'
// medians, p99 the pooled 99th percentile (a third has too few samples
// to resolve it), with the sample count. A failed request counts as
// infinitely late.
func latencyStats(samples []sample, length time.Duration) (p50, p99 float64, n int) {
	var pooled []float64
	windows := make([][]float64, thirds)
	for _, s := range samples {
		lat := math.Inf(1)
		if s.ok {
			lat = float64(s.done-s.due) / float64(time.Millisecond)
		}
		pooled = append(pooled, lat)
		k := min(int(int64(s.due)*thirds/int64(length)), thirds-1)
		windows[k] = append(windows[k], lat)
	}
	var p50s []float64
	for _, win := range windows {
		if len(win) > 0 {
			p50s = append(p50s, quantile(sortedCopy(win), 0.5))
		}
	}
	sort.Float64s(pooled)
	return median(p50s), quantile(pooled, 0.99), len(pooled)
}

// lateness is the 99th percentile of how late the generator sent open-
// loop requests — after their due time or after their connection came
// free, whichever was later — in milliseconds.
func lateness(phases [][]sample) float64 {
	var late []float64
	for _, ss := range phases {
		for _, s := range ss {
			late = append(late, float64(s.late)/float64(time.Millisecond))
		}
	}
	sort.Float64s(late)
	return quantile(late, 0.99)
}
