package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

func TestPercentileRule(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := quantile(sorted, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500 (nearest rank)", got)
	}
	if got := quantile(sorted, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	// p99 needs 10 samples beyond it: 1000 resolve it, 999 do not.
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := highestResolvable(c.n); got != c.want {
			t.Errorf("highestResolvable(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if resolvable(999, 0.99) || !resolvable(1000, 0.99) {
		t.Error("resolvable must require at least 10 samples beyond the percentile")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python 3.
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
	} {
		q1, q2, q3 := quartiles(c.data)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

// fakeInstance serves a handler on a loopback listener.
type fakeInstance struct{ ts *httptest.Server }

func (f fakeInstance) address() string              { return f.ts.Listener.Addr().String() }
func (f fakeInstance) stop() error                  { f.ts.Close(); return nil }
func (f fakeInstance) kill()                        { f.ts.Close() }
func (f fakeInstance) peakRSSMB() (float64, error)  { return 1, nil }
func (f fakeInstance) cpuSeconds() (float64, error) { return 0, nil }

func TestOpenLoopTimedFromDue(t *testing.T) {
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(40 * time.Millisecond) })
		w.Header().Set("X-Cache", "HIT")
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	ops := []*op{
		{kind: opRead, target: "/first", expect: expect{cache: "HIT"}},
		{kind: opRead, target: "/second", expect: expect{cache: "HIT"}},
	}
	i := 0
	next := func() *op {
		if i == len(ops) {
			return nil
		}
		i++
		return ops[i-1]
	}
	// A huge rate makes both requests due at once; one connection makes
	// the second wait behind the first.
	w := &workload{name: "test", verifyEvery: 1, streams: []*stream{
		{name: "read", conns: 1, rate: 1e6, arrival: newRand(1, "test"), next: next},
	}}
	r := &runner{w: w, child: fakeInstance{ts}}
	res, err := r.openPhase(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	out := res.samples
	if r.failed.Load() != 0 {
		t.Fatalf("failures: %v", r.errs)
	}
	if len(out[0]) != 2 {
		t.Fatalf("got %d samples, want 2", len(out[0]))
	}
	second := out[0][1]
	if second.op != ops[1] {
		second = out[0][0]
	}
	if lat := second.done - second.due; lat < 40*time.Millisecond {
		t.Errorf("second request's latency %v excludes its wait behind the first: it must be timed from its due time", lat)
	}
	if wait := second.sent - second.due; wait < 30*time.Millisecond {
		t.Errorf("second request sent %v after due, want it held back by the busy connection", wait)
	}
	if second.late > 10*time.Millisecond {
		t.Errorf("generator lateness %v counts the busy connection's wait; it must count only the generator's own delay", second.late)
	}
	p50, _, _ := latencyStats(out[0], time.Second)
	if p50 < 40 {
		t.Errorf("p50 %vms, want both requests' latency to include the 40ms stall", p50)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracedRun{}
	// server.http takes 100; the layer chain (request) 90 of it, with
	// finalize 50 and marshal 20; a breakdown root stays out of the
	// shares.
	for _, s := range []span{
		{Req: 1, ID: 1, Name: "server.http", Op: "read", Start: 0, End: 100},
		{Req: 1, ID: 2, Parent: 1, Name: "request", Start: 100, End: 190},
		{Req: 1, ID: 3, Parent: 2, Name: "core.finalize", Start: 110, End: 160, N: 10},
		{Req: 1, ID: 4, Parent: 2, Name: "core.marshal", Start: 160, End: 180, N: 500},
		{Req: 1, ID: 5, Name: "breakdown", Start: 200, End: 300},
		{Req: 1, ID: 6, Parent: 5, Name: "analysis.finalize.datasize", Start: 200, End: 250},
	} {
		tr.t.spans = append(tr.t.spans, s)
	}
	got := map[string]float64{}
	for _, m := range tr.layerMetrics().list {
		got[m.name] = m.value
	}
	for name, want := range map[string]float64{
		"server.http.self_share":            0.1,
		"core.finalize.self_share":          0.5,
		"core.marshal.self_share":           0.2,
		"bench.coverage":                    0.9,
		"core.finalize.ns_per_job":          5,
		"core.marshal.bytes_per_report":     500,
		"analysis.finalize.datasize.us_p50": 0.05,
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

// sequence renders a workload's inputs and its first seconds of
// requests, stream by stream.
func sequence(t *testing.T, name string, seed uint64) string {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, g := range w.traces {
		fmt.Fprintf(&b, "trace %s %s\n", g.name, g.fp)
	}
	for _, o := range w.warm {
		fmt.Fprintf(&b, "warm %s\n", o.target)
	}
	for _, s := range w.streams {
		for _, o := range s.schedule(3 * time.Second) {
			fmt.Fprintf(&b, "%s %d %d %s %t %d\n", s.name, o.seq, o.due, o.target, o.liveWhole, o.batch)
		}
	}
	return b.String()
}

func TestSequenceDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, again, other := sequence(t, name, 1), sequence(t, name, 1), sequence(t, name, 2)
			if a != again {
				t.Error("the same seed gave different inputs or requests")
			}
			if a == other {
				t.Error("different seeds gave identical inputs and requests")
			}
		})
	}
}

func TestKeysDistinct(t *testing.T) {
	for _, name := range []string{coldFinalize, oocWindow} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for i := 0; i < 5000; i++ {
				o := w.streams[0].draw()
				if seen[o.target] {
					t.Fatalf("request %d repeats %s", i, o.target)
				}
				seen[o.target] = true
				if o.expect.cache != "MISS" {
					t.Fatalf("%s must require a cache miss", o.target)
				}
				if !o.from.IsZero() {
					if o.from.Before(o.tr.tr.Meta.Start) || o.to.After(o.tr.end()) {
						t.Fatalf("%s leaves the trace span", o.target)
					}
					if o.tr.jobsIn(o.from, o.to) == 0 {
						t.Fatalf("%s selects no jobs", o.target)
					}
				}
			}
		})
	}
}

func TestInputSizesFixed(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		w, err := newWorkload(coldFinalize, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range w.traces {
			if g.tr.Len() != traceJobs[g.name] {
				t.Errorf("seed %d: %s has %d jobs, want %d", seed, g.name, g.tr.Len(), traceJobs[g.name])
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, p := range parent {
			out[i] = p * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		want   string
	}{
		{"slower within bound", scale(1.05), false, "ok"},
		{"slower past bound", scale(1.2), false, "worse"},
		{"faster", scale(0.5), false, "ok"},
		{"throughput drop past bound", scale(0.8), true, "worse"},
		{"throughput gain", scale(1.3), true, "ok"},
	} {
		if got, _ := verdict(parent, c.change, c.higher, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 100, 90, 110}
	if got, _ := verdict(noisy, []float64{105, 110, 95}, false, 0.1); got != "unresolved" {
		t.Errorf("a parent spreading wider than the bound gave %s, want unresolved", got)
	}
	if got, _ := verdict(noisy, []float64{40, 45}, false, 0.1); got != "ok" {
		t.Errorf("a change beating every parent run gave %s, want ok", got)
	}
}

// inProcess serves a workload's configuration from server.New behind a
// loopback listener.
type inProcess struct {
	srv  *server.Server
	ts   *httptest.Server
	once sync.Once
	err  error
}

func (p *inProcess) address() string { return p.ts.Listener.Addr().String() }

func (p *inProcess) stop() error {
	p.once.Do(func() {
		p.ts.Close()
		p.err = p.srv.Close()
	})
	return p.err
}

func (p *inProcess) kill()                       { _ = p.stop() }
func (p *inProcess) peakRSSMB() (float64, error) { return 1, nil }

// cpuSeconds is the test process's own CPU time: the load generator's
// included, which a smoke test does not mind.
func (p *inProcess) cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

func launchInProcess(w *workload, dataDir string) (instance, error) {
	srv, err := server.New(w.serverConfig(dataDir))
	if err != nil {
		return nil, err
	}
	return &inProcess{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// TestSmoke runs every workload for about a second, untraced against an
// in-process server and traced, and requires every check to pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every workload's inputs and runs it")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runLoad(w, launchInProcess, t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d requests failed: %v", res.failed, res.attempted, res.errs)
			}
			for _, m := range res.metrics {
				if !(m.value > 0) {
					t.Errorf("%s = %v, want a positive measurement", m.name, m.value)
				}
			}

			w, err = newWorkload(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			res, err = runTraced(w, t.TempDir(), t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("traced: %d of %d requests failed: %v", res.failed, res.attempted, res.errs)
			}
		})
	}
}
