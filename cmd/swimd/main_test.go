package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	swim "repro"
	"repro/internal/obs"
	"repro/internal/trace"
)

func TestRunFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-bogus"}, &out, &errb, nil, nil); err == nil {
		t.Error("unknown flag should error")
	}
	if err := run([]string{"-h"}, &out, &errb, nil, nil); err != flag.ErrHelp {
		t.Errorf("-h should return flag.ErrHelp, got %v", err)
	}
	if err := run([]string{"-preload", "nope", "-addr", "127.0.0.1:0"}, &out, &errb, nil, nil); err == nil {
		t.Error("unknown preload workload should error")
	}
	if err := run([]string{"-addr", "not-an-addr:xx:yy"}, &out, &errb, nil, nil); err == nil {
		t.Error("bad listen address should error")
	}
	if err := run([]string{"-peers", "n0=http://127.0.0.1:1", "-addr", "127.0.0.1:0"}, &out, &errb, nil, nil); err == nil {
		t.Error("-peers without -node-id should error")
	}
	if err := run([]string{"-peers", "bogus", "-node-id", "n0", "-addr", "127.0.0.1:0"}, &out, &errb, nil, nil); err == nil {
		t.Error("malformed -peers should error")
	}
}

// TestRunServesAndShutsDown boots the real binary path on a random
// port with a preloaded trace, exercises the API over TCP, and shuts
// down cleanly via the stop channel.
func TestRunServesAndShutsDown(t *testing.T) {
	var out, errb bytes.Buffer
	ready := make(chan string, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	go func() {
		defer wg.Done()
		runErr = run([]string{
			"-addr", "127.0.0.1:0",
			"-preload", "CC-a",
			"-preload-duration", "25h",
			"-quiet",
		}, &out, &errb, ready, stop)
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not come up (stdout: %s, stderr: %s)", out.String(), errb.String())
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	// The preloaded trace serves a report, and the repeat is a hit.
	for i, want := range []string{"MISS", "HIT"} {
		resp, err = http.Get(base + "/v1/traces/CC-a/report")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report %d: %d %.200s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Errorf("report %d: X-Cache=%q want %q", i, got, want)
		}
		if i == 0 {
			var rep struct {
				Summary struct {
					Jobs int `json:"jobs"`
				} `json:"summary"`
			}
			if err := json.Unmarshal(body, &rep); err != nil || rep.Summary.Jobs == 0 {
				t.Errorf("report body: %v %.200s", err, body)
			}
		}
	}

	close(stop)
	wg.Wait()
	if runErr != nil {
		t.Errorf("run returned %v (stderr: %s)", runErr, errb.String())
	}
}

// startSwimd boots run() on a random port and returns the base URL, the
// stop channel, and a wait func returning run's error and stdout.
func startSwimd(t *testing.T, args ...string) (base string, stop chan struct{}, wait func() (error, string)) {
	t.Helper()
	var out, errb bytes.Buffer
	ready := make(chan string, 1)
	stop = make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	go func() {
		defer wg.Done()
		runErr = run(append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...), &out, &errb, ready, stop)
	}()
	select {
	case addr := <-ready:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not come up (stdout: %s, stderr: %s)", out.String(), errb.String())
	}
	return base, stop, func() (error, string) {
		wg.Wait()
		return runErr, out.String()
	}
}

// reservePorts grabs n distinct loopback addresses by binding and
// releasing listeners. The cluster flags need every member's address
// before any member starts, so the ports are reserved up front; the
// window between release and swimd's own bind is unobservably small
// for a test that owns the machine.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestClusterEndToEnd boots a real 3-node swimd cluster over TCP:
// a sharded ingest through one node, scatter/gather reports through
// another — byte-identical to a single-node swimd serving the same
// upload — and a node killed mid-service with the survivors still
// answering in full from the replicas.
func TestClusterEndToEnd(t *testing.T) {
	tr, err := swim.Generate(swim.GenerateOptions{Workload: "FB-2009", Seed: 3, Duration: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := trace.WriteJSONL(&payload, tr); err != nil {
		t.Fatal(err)
	}

	// The reference answer: one ordinary swimd serving the same bytes.
	soloBase, soloStop, soloWait := startSwimd(t)
	defer func() { close(soloStop); soloWait() }()
	resp, err := http.Post(soloBase+"/v1/traces/e2e", "application/jsonl", bytes.NewReader(payload.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("solo ingest: %d", resp.StatusCode)
	}
	resp, err = http.Get(soloBase + "/v1/traces/e2e/report")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	addrs := reservePorts(t, 3)
	peers := make([]string, 3)
	for i, a := range addrs {
		peers[i] = fmt.Sprintf("n%d=http://%s", i, a)
	}
	peersFlag := strings.Join(peers, ",")
	bases := make([]string, 3)
	stops := make([]chan struct{}, 3)
	waits := make([]func() (error, string), 3)
	for i := range addrs {
		bases[i], stops[i], waits[i] = startSwimd(t,
			"-addr", addrs[i],
			"-node-id", fmt.Sprintf("n%d", i),
			"-peers", peersFlag,
			"-replication", "2",
			// Peers park pre-dialed spare connections; don't spend the full
			// default grace on them at each node's shutdown.
			"-drain-timeout", "250ms",
		)
	}
	alive := []int{0, 1}
	defer func() {
		for _, i := range alive {
			close(stops[i])
			waits[i]()
		}
	}()

	resp, err = http.Post(bases[0]+"/v1/traces/e2e", "application/jsonl", bytes.NewReader(payload.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("cluster ingest: %d %.200s", resp.StatusCode, body)
	}
	var info struct {
		Cluster bool `json:"cluster"`
		Shards  int  `json:"shards"`
	}
	if err := json.Unmarshal(body, &info); err != nil || !info.Cluster || info.Shards != 3 {
		t.Fatalf("cluster ingest info: %v %.200s", err, body)
	}

	// A report through a node that did not coordinate the ingest is the
	// single-node answer, byte for byte.
	resp, err = http.Get(bases[1] + "/v1/traces/e2e/report")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster report: %d %.200s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster report differs from single-node (%d vs %d bytes)", len(got), len(want))
	}

	// Kill node 2 and query again: with replication 2 every shard still
	// has a live owner, so the answer stays complete and identical.
	close(stops[2])
	if err, _ := waits[2](); err != nil {
		t.Fatalf("node 2 shutdown: %v", err)
	}
	resp, err = http.Get(bases[0] + "/v1/traces/e2e/report?top=9")
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := io.ReadAll(resp.Body)
	degradedHdr := resp.Header.Get("X-Analysis")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-kill report: %d %.200s", resp.StatusCode, got2)
	}
	if degradedHdr == "degraded" {
		t.Fatalf("post-kill report degraded despite replication=2")
	}
	var rep struct {
		Summary struct {
			Jobs int `json:"jobs"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(got2, &rep); err != nil || rep.Summary.Jobs != tr.Len() {
		t.Fatalf("post-kill report jobs=%d want %d (err=%v)", rep.Summary.Jobs, tr.Len(), err)
	}
}

// TestGracefulShutdownDrainsUploadAndPersists is the shutdown contract
// over the durable store: a JSONL upload still streaming when the stop
// signal arrives is drained to completion, its manifest committed, and
// a restarted swimd over the same data dir serves the trace — cold,
// from the persisted partial — with no re-upload.
func TestGracefulShutdownDrainsUploadAndPersists(t *testing.T) {
	dir := t.TempDir()
	tr, err := swim.Generate(swim.GenerateOptions{Workload: "CC-a", Seed: 1, Duration: 25 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := trace.WriteJSONL(&body, tr); err != nil {
		t.Fatal(err)
	}
	payload := body.Bytes()

	base, stop, wait := startSwimd(t, "-data", dir)

	// Stream the upload through a pipe so we control its pacing: the
	// first half is consumed by the server (pipe writes block until
	// read), then the stop signal fires mid-upload, then the rest goes
	// through. Shutdown must wait for the 201, not cut the request.
	//
	// The contract covers requests the server has started; a connection
	// still in the accept backlog when the listener closes is reset. So
	// the stop must wait for server-side evidence that the handler runs:
	// with Expect: 100-continue the client holds the body until the
	// server's 100 Continue, which Go's server sends only on the
	// handler's first body read — the first pipe write cannot return
	// before then.
	pr, pw := io.Pipe()
	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/traces/survivor", pr)
		if err != nil {
			done <- result{err: err}
			return
		}
		req.Header.Set("Content-Type", "application/jsonl")
		req.Header.Set("Expect", "100-continue")
		client := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: time.Minute}}
		resp, err := client.Do(req)
		if err != nil {
			done <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- result{status: resp.StatusCode}
	}()
	half := len(payload) / 2
	if _, err := pw.Write(payload[:half]); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if _, err := pw.Write(payload[half:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	res := <-done
	if res.err != nil || res.status != http.StatusCreated {
		t.Fatalf("in-flight upload not drained: status=%d err=%v", res.status, res.err)
	}
	runErr, stdout := wait()
	if runErr != nil {
		t.Fatalf("run returned %v", runErr)
	}
	if !strings.Contains(stdout, "durable state flushed") {
		t.Errorf("shutdown did not report the durable flush; stdout: %s", stdout)
	}

	// Restart over the same dir: the trace is recovered and a cold
	// report is served from the persisted aggregate without rescanning.
	base2, stop2, wait2 := startSwimd(t, "-data", dir)
	defer func() {
		close(stop2)
		wait2()
	}()
	resp, err := http.Get(base2 + "/v1/traces/survivor/report")
	if err != nil {
		t.Fatal(err)
	}
	bodyBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report after restart: %d %.200s", resp.StatusCode, bodyBytes)
	}
	if got := resp.Header.Get("X-Analysis"); got != "recovered-partial" {
		t.Errorf("restarted report X-Analysis = %q, want recovered-partial", got)
	}
	var rep struct {
		Summary struct {
			Jobs int `json:"jobs"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(bodyBytes, &rep); err != nil || rep.Summary.Jobs != tr.Len() {
		t.Errorf("restarted report jobs=%d want %d (err=%v)", rep.Summary.Jobs, tr.Len(), err)
	}
}

// TestMetricsEndToEnd boots the real binary path over TCP and verifies
// the observability surface a scraper sees: a parseable /metrics
// payload carrying request, storage, and runtime series, and an
// X-Request-Id on every response.
func TestMetricsEndToEnd(t *testing.T) {
	base, stop, wait := startSwimd(t, "-preload", "CC-a", "-preload-duration", "25h")

	resp, err := http.Get(base + "/v1/traces/CC-a/report")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("report response missing X-Request-Id")
	}

	// The middleware records the report after its handler returns,
	// which can be after the client has read the body: scrape until the
	// record is in.
	var exp *obs.Exposition
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err = http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics: %d %s", resp.StatusCode, payload)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("/metrics Content-Type %q", ct)
		}
		if exp, err = obs.ParsePrometheus(string(payload)); err != nil {
			t.Fatalf("/metrics does not parse: %v", err)
		}
		if _, ok := exp.Value("swim_http_requests_total", "endpoint", "GET /v1/traces/{name}/report", "code", "200"); ok || time.Now().After(deadline) {
			break
		}
	}
	for _, name := range []string{
		"swim_http_requests_total",
		"swim_http_request_duration_seconds_bucket",
		"swim_store_traces",
		"swim_store_jobs",
		"swim_storage_trace_segments",
		"swim_build_info",
		"swim_uptime_seconds",
		"go_goroutines",
	} {
		if len(exp.Find(name)) == 0 {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if v, ok := exp.Value("swim_http_requests_total", "endpoint", "GET /v1/traces/{name}/report", "code", "200"); !ok || v != 1 {
		t.Errorf("report series %v, %v", v, ok)
	}
	if v, ok := exp.Value("swim_store_traces"); !ok || v != 1 {
		t.Errorf("swim_store_traces %v, %v", v, ok)
	}

	// The debug ring is reachable over TCP too and holds the report.
	var dbg struct {
		Count int `json:"count"`
	}
	resp, err = http.Get(base + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&dbg)
	resp.Body.Close()
	if err != nil || dbg.Count == 0 {
		t.Errorf("debug ring: err=%v count=%d", err, dbg.Count)
	}

	close(stop)
	if err, _ := wait(); err != nil {
		t.Errorf("run returned %v", err)
	}
}
