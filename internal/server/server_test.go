package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// mustNew builds a Server, failing the test on configuration errors.
func mustNew(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// newTestServer returns a started httptest server plus the Server for
// white-box assertions.
func newTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerCfg(t, Config{})
}

// newTestServerCfg is newTestServer with a custom configuration.
func newTestServerCfg(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// ingestTrace uploads tr under name via the HTTP API and returns the
// ingest response.
func ingestTrace(t testing.TB, ts *httptest.Server, name string, tr *trace.Trace) TraceInfo {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/traces/"+name, "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	var info TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func getJSON(t testing.TB, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, clip(body), err)
		}
	}
	return resp
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t)
	var health map[string]string
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Errorf("healthz %+v", health)
	}
	// requests counts the healthz request once the middleware has
	// recorded it, which can be after the client has the response.
	var stats StatsResponse
	settle(func() bool {
		getJSON(t, ts.URL+"/v1/stats", &stats)
		return stats.Requests.Requests > 0
	})
	if stats.Store.MaxTraces != DefaultMaxTraces || stats.Cache.Capacity != DefaultCacheEntries {
		t.Errorf("stats %+v", stats)
	}
	if stats.Requests.Requests == 0 || stats.Requests.Status2xx != stats.Requests.Requests {
		t.Errorf("request counts %+v, want only 2xx", stats.Requests)
	}
}

func TestIngestInfoListDelete(t *testing.T) {
	_, ts := newTestServer(t)
	tr := genTrace(t, "CC-b", 1, 25*time.Hour)
	info := ingestTrace(t, ts, "mine", tr)
	if info.Jobs != tr.Len() || info.Workload != "CC-b" || len(info.Fingerprint) != 64 {
		t.Errorf("ingest info %+v", info)
	}

	var got TraceInfo
	getJSON(t, ts.URL+"/v1/traces/mine", &got)
	if got != info {
		t.Errorf("info mismatch: %+v vs %+v", got, info)
	}

	var list map[string][]TraceInfo
	getJSON(t, ts.URL+"/v1/traces", &list)
	if len(list["traces"]) != 1 {
		t.Errorf("list %+v", list)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/traces/mine", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/traces/mine"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("get after delete: %d", resp.StatusCode)
	}
}

func TestIngestBadBody(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/traces/x", "application/jsonl", strings.NewReader("not json\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad upload: %d", resp.StatusCode)
	}
}

func TestReportEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	tr := genTrace(t, "CC-b", 1, 49*time.Hour)
	info := ingestTrace(t, ts, "mine", tr)

	var rep core.ReportJSON
	resp := getJSON(t, ts.URL+"/v1/traces/mine/report", &rep)
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Errorf("first request X-Cache=%q", resp.Header.Get("X-Cache"))
	}
	if rep.Summary.Jobs != info.Jobs || rep.DataSizes == nil || rep.Series == nil || rep.Names == nil {
		t.Errorf("report sections missing: %+v", rep.Summary)
	}
	if rep.Clusters != nil {
		t.Error("streaming report should not cluster")
	}

	resp = getJSON(t, ts.URL+"/v1/traces/mine/report", nil)
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Errorf("second request X-Cache=%q", resp.Header.Get("X-Cache"))
	}
	if st := s.Cache().Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats %+v", st)
	}

	// full=1 is a different key and carries Table 2.
	var full core.ReportJSON
	resp = getJSON(t, ts.URL+"/v1/traces/mine/report?full=1", &full)
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Error("full report should be a distinct cache key")
	}
	if full.Clusters == nil {
		t.Error("full report missing clusters")
	}

	// sketch=1 uses fixed-memory distributions; summary must agree.
	var sk core.ReportJSON
	getJSON(t, ts.URL+"/v1/traces/mine/report?sketch=1", &sk)
	if sk.Summary.Jobs != rep.Summary.Jobs {
		t.Error("sketch summary drifted")
	}

	if resp, _ := http.Get(ts.URL + "/v1/traces/none/report"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace report: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/traces/mine/report?top=zz"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad top param: %d", resp.StatusCode)
	}
	// A top below 1 is refused by name, not answered as the default
	// eight words (top=0) or as one word (top=-3) under a key of its own.
	for _, top := range []string{"0", "-3"} {
		if code, _, body := fetchRaw(t, ts.URL+"/v1/traces/mine/report?top="+top); code != http.StatusBadRequest ||
			!strings.Contains(string(body), "top="+top) {
			t.Errorf("top=%s: %d %s", top, code, body)
		}
	}

	// A MISS and a HIT both carry Content-Length, so a report of any
	// size goes out as one unchunked body.
	for _, want := range []string{"MISS", "HIT"} {
		resp, err := http.Get(ts.URL + "/v1/traces/mine/report?top=3")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.Header.Get("X-Cache") != want {
			t.Fatalf("top=3: X-Cache %q, want %s (%v)", resp.Header.Get("X-Cache"), want, err)
		}
		if len(body) <= 2048 || resp.ContentLength != int64(len(body)) || resp.TransferEncoding != nil {
			t.Errorf("%s: %d-byte body sent with Content-Length %d, Transfer-Encoding %q",
				want, len(body), resp.ContentLength, resp.TransferEncoding)
		}
	}
}

// TestReportCacheInvalidatedByReingest: replacing a trace under the same
// name changes its fingerprint, so the next report recomputes instead of
// serving the old version's memo.
func TestReportCacheInvalidatedByReingest(t *testing.T) {
	_, ts := newTestServer(t)
	ingestTrace(t, ts, "mine", genTrace(t, "CC-b", 1, 25*time.Hour))
	var rep1 core.ReportJSON
	getJSON(t, ts.URL+"/v1/traces/mine/report", &rep1)

	ingestTrace(t, ts, "mine", genTrace(t, "CC-b", 2, 49*time.Hour))
	var rep2 core.ReportJSON
	resp := getJSON(t, ts.URL+"/v1/traces/mine/report", &rep2)
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Error("re-ingested trace served a stale cached report")
	}
	if rep2.Summary.Jobs == rep1.Summary.Jobs {
		t.Error("report did not reflect the new trace")
	}
}

func TestSynthEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	ingestTrace(t, ts, "mine", genTrace(t, "CC-b", 1, 73*time.Hour))

	var syn SynthResponse
	resp := getJSON(t, ts.URL+"/v1/traces/mine/synth?length=24h&seed=7", &syn)
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Error("first synth should miss")
	}
	if syn.Synthetic.Jobs == 0 || syn.Synthetic.LengthMS != (24*time.Hour).Milliseconds() {
		t.Errorf("synthetic %+v", syn.Synthetic)
	}
	resp = getJSON(t, ts.URL+"/v1/traces/mine/synth?length=24h&seed=7", nil)
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Error("repeat synth should hit")
	}

	// store= persists the synthetic trace and bypasses the cache.
	var stored SynthResponse
	resp = getJSON(t, ts.URL+"/v1/traces/mine/synth?length=24h&seed=7&store=syn24", &stored)
	if resp.Header.Get("X-Cache") != "BYPASS" || stored.StoredAs == nil {
		t.Fatalf("store= not honored: X-Cache=%q stored=%+v", resp.Header.Get("X-Cache"), stored.StoredAs)
	}
	var info TraceInfo
	getJSON(t, ts.URL+"/v1/traces/syn24", &info)
	if info.Jobs != stored.StoredAs.Jobs {
		t.Error("stored synthetic trace not queryable")
	}
}

func TestReplayEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	ingestTrace(t, ts, "mine", genTrace(t, "CC-a", 1, 25*time.Hour))

	var rep ReplayResponse
	resp := getJSON(t, ts.URL+"/v1/traces/mine/replay?scheduler=fair", &rep)
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Error("first replay should miss")
	}
	if rep.Completed == 0 || rep.TotalSlots == 0 || len(rep.HourlyOccupancy) == 0 {
		t.Errorf("replay %+v", rep)
	}
	if rep.Scheduler != "fair" {
		t.Errorf("scheduler %q", rep.Scheduler)
	}
	resp = getJSON(t, ts.URL+"/v1/traces/mine/replay?scheduler=fair", nil)
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Error("repeat replay should hit")
	}
	if resp, _ := http.Get(ts.URL + "/v1/traces/mine/replay?scheduler=lifo"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scheduler: %d", resp.StatusCode)
	}
}

func TestGenerateJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"workload":"CC-b","name":"gen-cc-b","duration":"25h","seed":3}`
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("generate: %d %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Trace != "gen-cc-b" {
		t.Fatalf("job %+v", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &st)
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("generation did not finish: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != "done" || st.Result == nil {
		t.Fatalf("job %+v", st)
	}
	if st.JobsWritten != int64(st.Result.Jobs) {
		t.Errorf("progress %d != stored jobs %d", st.JobsWritten, st.Result.Jobs)
	}
	// The generated trace equals the directly generated one.
	want := genTrace(t, "CC-b", 3, 25*time.Hour)
	wantFP, err := want.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if st.Result.Fingerprint != wantFP {
		t.Error("generated-via-API trace drifted from direct generation")
	}

	var jobs map[string][]JobStatus
	getJSON(t, ts.URL+"/v1/jobs", &jobs)
	if len(jobs["jobs"]) != 1 {
		t.Errorf("jobs list %+v", jobs)
	}

	// Bad requests.
	for _, bad := range []string{`{}`, `{"workload":"nope"}`, `{"workload":"CC-b","duration":"xx"}`, `not json`} {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("generate %q: %d", bad, resp.StatusCode)
		}
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/gen-999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d", resp.StatusCode)
	}
}

// TestGenerateBoundedByStoreBudget: an async generation that could
// never fit the store fails mid-stream (bounded heap) instead of
// materializing the whole trace first.
func TestGenerateBoundedByStoreBudget(t *testing.T) {
	s := mustNew(t, Config{MaxTotalJobs: 50})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json",
		strings.NewReader(`{"workload":"CC-b","name":"big","duration":"25h"}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for st.State == "running" && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &st)
	}
	if st.State != "failed" || !strings.Contains(st.Error, "budget") {
		t.Errorf("oversized generation should fail on the job budget, got %+v", st)
	}
	if st.JobsWritten > 50 {
		t.Errorf("generation buffered %d jobs past the 50-job budget", st.JobsWritten)
	}
}

// TestIngestByteLimit: a body over MaxUploadBytes is rejected even if
// it never contains a newline.
func TestIngestByteLimit(t *testing.T) {
	s := mustNew(t, Config{MaxUploadBytes: 1024})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/traces/x", "application/jsonl",
		bytes.NewReader(bytes.Repeat([]byte("a"), 4096)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// The reader fails while parsing the (truncated, non-JSON) header —
	// either mapping is acceptable, but the request must be refused.
	if resp.StatusCode != http.StatusInsufficientStorage && resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: %d %s", resp.StatusCode, body)
	}
}

// TestReplayStragglersAlone: ?stragglers= must work without an explicit
// straggler_factor (the factor defaults to the CLI's 5x).
func TestReplayStragglersAlone(t *testing.T) {
	_, ts := newTestServer(t)
	ingestTrace(t, ts, "mine", genTrace(t, "CC-a", 1, 25*time.Hour))
	var rep ReplayResponse
	getJSON(t, ts.URL+"/v1/traces/mine/replay?stragglers=0.05", &rep)
	if rep.Completed == 0 {
		t.Errorf("straggler replay %+v", rep)
	}
}

// TestPanicRecovery: a handler panic becomes a 500, not a dead server.
func TestPanicRecovery(t *testing.T) {
	s := mustNew(t, Config{})
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panic -> %d", resp.StatusCode)
	}
	// Server still alive.
	getJSON(t, ts.URL+"/healthz", nil)
	if st := s.mw.stats(); st.Status5xx == 0 {
		t.Error("5xx not counted")
	}
}

func TestStoreFullOverHTTP(t *testing.T) {
	s := mustNew(t, Config{MaxTotalJobs: 10})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tr := genTrace(t, "CC-b", 1, 25*time.Hour)
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/traces/big", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Errorf("store full: %d %s", resp.StatusCode, body)
	}
}
