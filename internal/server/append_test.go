package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/units"
)

// splitBatches cuts a sorted trace into n contiguous batches.
func splitBatches(tr *trace.Trace, n int) [][]*trace.Job {
	batches := make([][]*trace.Job, 0, n)
	per := (len(tr.Jobs) + n - 1) / n
	for i := 0; i < len(tr.Jobs); i += per {
		end := i + per
		if end > len(tr.Jobs) {
			end = len(tr.Jobs)
		}
		batches = append(batches, tr.Jobs[i:end])
	}
	return batches
}

// postAppend sends one JSONL batch to the append endpoint and returns
// the raw response.
func postAppend(t testing.TB, ts *httptest.Server, name string, meta trace.Meta, jobs []*trace.Job) (*http.Response, []byte) {
	t.Helper()
	batch := trace.New(meta)
	batch.Jobs = jobs
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, batch); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/traces/"+name+"/append", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

// appendTrace drives tr into name as k batches, requiring every batch
// to commit, and returns the final response.
func appendTrace(t testing.TB, ts *httptest.Server, name string, tr *trace.Trace, k int) AppendResponse {
	t.Helper()
	var last AppendResponse
	for i, batch := range splitBatches(tr, k) {
		resp, body := postAppend(t, ts, name, tr.Meta, batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append batch %d: %d %s", i, resp.StatusCode, clip(body))
		}
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
		if last.Appended != len(batch) {
			t.Fatalf("batch %d: appended %d, sent %d", i, last.Appended, len(batch))
		}
	}
	return last
}

// TestAppendEquivalence is the live-ingest acceptance gate: K batched
// appends must be indistinguishable from a one-shot upload of the same
// jobs — same fingerprint, same identity, and byte-identical report
// from each trace's own frozen aggregate — in both store modes.
func TestAppendEquivalence(t *testing.T) {
	for _, mode := range []string{"memory", "disk"} {
		t.Run(mode, func(t *testing.T) {
			tr := genTrace(t, "FB-2009", 2, 26*time.Hour)
			for _, k := range []int{1, 3, 7} {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					var s *Server
					var ts *httptest.Server
					if mode == "disk" {
						s, ts = diskServer(t, t.TempDir(), Config{})
					} else {
						s, ts = newTestServer(t)
					}
					ref := ingestTrace(t, ts, "ref", tr)
					live := appendTrace(t, ts, "live", tr, k)
					if live.Fingerprint != ref.Fingerprint {
						t.Fatalf("appended fingerprint %s, one-shot %s", live.Fingerprint, ref.Fingerprint)
					}
					want := ref
					want.Name = "live"
					if live.TraceInfo != want {
						t.Fatalf("appended identity %+v, want %+v", live.TraceInfo, want)
					}

					// The frozen aggregates must agree independently of the
					// shared result cache: finalize each entry's own partial.
					vLive, err := s.Store().View("live")
					if err != nil {
						t.Fatal(err)
					}
					vRef, err := s.Store().View("ref")
					if err != nil {
						t.Fatal(err)
					}
					if vLive.Partial == nil || vRef.Partial == nil {
						t.Fatal("missing frozen aggregate")
					}
					repLive, err := vLive.Partial.Report(8)
					if err != nil {
						t.Fatal(err)
					}
					repRef, err := vRef.Partial.Report(8)
					if err != nil {
						t.Fatal(err)
					}
					a, _ := json.Marshal(repLive.JSON())
					b, _ := json.Marshal(repRef.JSON())
					if !bytes.Equal(a, b) {
						t.Fatal("append-built aggregate report diverges from one-shot")
					}

					resp, _ := getRaw(t, ts.URL+"/v1/traces/live/report")
					if got := resp.Header.Get("X-Analysis"); got != "ingest-partial" {
						t.Fatalf("live report X-Analysis = %q, want ingest-partial", got)
					}
				})
			}
		})
	}
}

// TestAppendDurability restarts the server after batched appends (and a
// torn uncommitted tail) and requires recovery at the last committed
// batch boundary. In the small-batch arm the committed partial snapshot
// is a checkpoint that lags the last batch, so the recovered partial
// replays the jobs past it, and must report the bytes of a one-shot
// upload of the same jobs.
func TestAppendDurability(t *testing.T) {
	tr := genTrace(t, "CC-b", 9, 26*time.Hour)
	for _, arm := range []struct {
		name    string
		batches int
	}{{"k=3", 3}, {"small", tr.Len() / 20}} {
		t.Run(arm.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, ts1 := diskServer(t, dir, Config{})
			live := appendTrace(t, ts1, "live", tr, arm.batches)
			ts1.Close()
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}

			// A torn tail past the committed boundary, as a crash
			// mid-append leaves behind.
			segs, err := filepath.Glob(filepath.Join(dir, "traces", "live", "*.seg"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no segments: %v", err)
			}
			f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("half a batch, never committed")); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if covered := checkpointJobs(t, filepath.Join(dir, "traces", "live")); arm.batches > 3 && covered == tr.Len() {
				t.Fatalf("the checkpoint covers all %d jobs; the small-batch arm needs a lagging one", covered)
			}

			s2, ts2 := diskServer(t, dir, Config{})
			rec := s2.Recovered()
			if len(rec) != 1 || rec[0] != live.TraceInfo {
				t.Fatalf("recovered %+v, want %+v", rec, live.TraceInfo)
			}
			var got TraceInfo
			getJSON(t, ts2.URL+"/v1/traces/live", &got)
			if got != live.TraceInfo {
				t.Fatalf("served identity %+v, want %+v", got, live.TraceInfo)
			}
			resp, body := getRaw(t, ts2.URL+"/v1/traces/live/report")
			if resp.Header.Get("X-Analysis") != "recovered-partial" {
				t.Fatalf("post-restart report X-Analysis = %q, want recovered-partial", resp.Header.Get("X-Analysis"))
			}
			// The one-shot reference comes from another server: on this
			// one the equal fingerprint would hit the recovered report in
			// the result cache.
			_, tsRef := newTestServer(t)
			ingestTrace(t, tsRef, "ref", cloneTrace(tr))
			if _, want := getRaw(t, tsRef.URL+"/v1/traces/ref/report"); !bytes.Equal(body, want) {
				t.Fatal("recovered report differs from a one-shot upload's")
			}
		})
	}
}

// checkpointJobs returns the jobs the committed partial snapshot of the
// trace in dir covers.
func checkpointJobs(t *testing.T, dir string) int {
	t.Helper()
	var man struct {
		Partial struct{ File string } `json:"partial"`
	}
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	if b, err = os.ReadFile(filepath.Join(dir, man.Partial.File)); err != nil {
		t.Fatal(err)
	}
	p, err := core.UnmarshalPartial(b)
	if err != nil {
		t.Fatal(err)
	}
	return p.Jobs()
}

// TestAppendConflicts covers the 409/400 surface: out-of-order batches,
// contradicted metadata, fresh appends without metadata, empty batches,
// and sessions invalidated by a replacement upload.
func TestAppendConflicts(t *testing.T) {
	_, ts := newTestServer(t)
	tr := genTrace(t, "FB-2010", 4, 26*time.Hour)
	batches := splitBatches(tr, 4)

	// Fresh append without complete metadata: 400.
	noMeta := trace.Meta{Name: tr.Meta.Name, Machines: tr.Meta.Machines}
	if resp, _ := postAppend(t, ts, "bare", noMeta, batches[0]); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("metadata-free create: %d, want 400", resp.StatusCode)
	}

	// Empty batch: 400.
	if resp, _ := postAppend(t, ts, "live", tr.Meta, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", resp.StatusCode)
	}

	appendTrace(t, ts, "live", trSlice(tr, batches[1]), 1)

	// A batch preceding the committed tail: 409.
	if resp, _ := postAppend(t, ts, "live", tr.Meta, batches[0]); resp.StatusCode != http.StatusConflict {
		t.Fatalf("out-of-order batch: %d, want 409", resp.StatusCode)
	}

	// A batch contradicting the committed header: 409.
	badMeta := tr.Meta
	badMeta.Start = tr.Meta.Start.Add(time.Hour)
	if resp, _ := postAppend(t, ts, "live", badMeta, batches[2]); resp.StatusCode != http.StatusConflict {
		t.Fatalf("contradicted metadata: %d, want 409", resp.StatusCode)
	}

	// In-order continuation still works after the rejections.
	if resp, body := postAppend(t, ts, "live", tr.Meta, batches[2]); resp.StatusCode != http.StatusOK {
		t.Fatalf("continuation: %d %s", resp.StatusCode, clip(body))
	}

	// Replacing the trace invalidates the session; the next append must
	// reopen against the replacement's tail, not the old session's.
	replacement := trSlice(tr, batches[0])
	ingestTrace(t, ts, "live", cloneTrace(replacement))
	if resp, body := postAppend(t, ts, "live", tr.Meta, batches[1]); resp.StatusCode != http.StatusOK {
		t.Fatalf("append after replacement: %d %s", resp.StatusCode, clip(body))
	}
	var info TraceInfo
	getJSON(t, ts.URL+"/v1/traces/live", &info)
	if info.Jobs != len(batches[0])+len(batches[1]) {
		t.Fatalf("post-replacement trace holds %d jobs, want %d", info.Jobs, len(batches[0])+len(batches[1]))
	}
}

// trSlice builds a trace with tr's metadata over the given jobs.
func trSlice(tr *trace.Trace, jobs []*trace.Job) *trace.Trace {
	out := trace.New(tr.Meta)
	out.Jobs = jobs
	return out
}

// cloneTrace deep-copies jobs so Put's normalize cannot touch shared
// slices.
func cloneTrace(tr *trace.Trace) *trace.Trace {
	out := trace.New(tr.Meta)
	for _, j := range tr.Jobs {
		cp := *j
		out.Add(&cp)
	}
	return out
}

// TestAppendWhileQuery hammers a growing trace with concurrent reports
// (plain, scanning, and windowed) while batches commit — the
// append-and-refreeze contract under the race detector. Every read must
// see some committed version, never an error.
func TestAppendWhileQuery(t *testing.T) {
	for _, mode := range []string{"memory", "disk"} {
		t.Run(mode, func(t *testing.T) {
			var ts *httptest.Server
			if mode == "disk" {
				_, ts = diskServer(t, t.TempDir(), Config{})
			} else {
				_, ts = newTestServer(t)
			}
			tr := genTrace(t, "FB-2009", 6, 26*time.Hour)
			batches := splitBatches(tr, 8)
			appendTrace(t, ts, "live", trSlice(tr, batches[0]), 1)

			done := make(chan struct{})
			var wg sync.WaitGroup
			endSec := tr.Meta.Start.Add(tr.Meta.Length).Unix()
			urls := []string{
				ts.URL + "/v1/traces/live/report",
				ts.URL + "/v1/traces/live/report?sketch=1", // forces a scan of the snapshot
				fmt.Sprintf("%s/v1/traces/live/report?from=%d&to=%d", ts.URL, tr.Meta.Start.Unix(), endSec),
				// The first half of the declared span always holds committed
				// jobs once batch 0 lands.
				fmt.Sprintf("%s/v1/traces/live/report?from=%d&to=%d", ts.URL,
					tr.Meta.Start.Unix(), tr.Meta.Start.Add(13*time.Hour).Unix()),
			}
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						resp, err := http.Get(urls[(r+i)%len(urls)])
						if err != nil {
							t.Error(err)
							return
						}
						body, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							t.Errorf("reader: %d %s", resp.StatusCode, clip(body))
							return
						}
					}
				}(r)
			}
			for i, batch := range batches[1:] {
				resp, body := postAppend(t, ts, "live", tr.Meta, batch)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("append batch %d under load: %d %s", i+1, resp.StatusCode, clip(body))
				}
			}
			close(done)
			wg.Wait()

			var info TraceInfo
			getJSON(t, ts.URL+"/v1/traces/live", &info)
			if info.Jobs != tr.Len() {
				t.Fatalf("final trace holds %d jobs, want %d", info.Jobs, tr.Len())
			}
			wantFP, err := tr.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if info.Fingerprint != wantFP {
				t.Fatal("final fingerprint diverges from one-shot")
			}
		})
	}
}

// TestWindowedReportHTTP exercises the read side over HTTP: a full-span
// window reproduces the default report byte-for-byte, a narrow window
// prunes segments (decode counters in the X-Scan headers prove it), and
// malformed window parameters are 400s.
func TestWindowedReportHTTP(t *testing.T) {
	_, ts := diskServer(t, t.TempDir(), Config{SegmentJobs: 500})
	start := time.Unix(1_700_000_000, 0).UTC()
	tr := trace.New(trace.Meta{Name: "synthetic", Machines: 100, Start: start, Length: 24 * time.Hour})
	step := 24 * time.Hour / 6000
	for i := 0; i < 6000; i++ {
		tr.Add(&trace.Job{
			ID:          int64(i),
			SubmitTime:  start.Add(time.Duration(i) * step),
			Duration:    time.Minute,
			InputBytes:  units.Bytes(1 << 20),
			OutputBytes: units.Bytes(1 << 18),
			MapTime:     60,
			MapTasks:    4,
		})
	}
	ingestTrace(t, ts, "syn", cloneTrace(tr))

	// Resident trace: a full-span window must reproduce the default
	// report exactly (it scans the same jobs under the same metadata).
	base := ts.URL + "/v1/traces/syn/report"
	_, def := getRaw(t, base)
	end := start.Add(24 * time.Hour)
	resp, full := getRaw(t, fmt.Sprintf("%s?from=%d&to=%d", base, start.Unix(), end.Unix()))
	if !bytes.Equal(def, full) {
		t.Fatal("full-span window report diverges from the default report")
	}
	if got := resp.Header.Get("X-Analysis"); got != "window-scan" {
		t.Fatalf("resident window X-Analysis = %q, want window-scan", got)
	}

	// Disk-resident trace (the 1-job hot budget forces the spill path):
	// a narrow window must prune segments, proven by the decode counters
	// in the X-Scan headers, and a repeat must hit the cache.
	_, ts2 := diskServer(t, t.TempDir(), Config{SegmentJobs: 500, MaxTotalJobs: 1})
	ingestTrace(t, ts2, "syn", cloneTrace(tr))
	narrow := fmt.Sprintf("%s/v1/traces/syn/report?from=%d&to=%d", ts2.URL,
		start.Add(6*time.Hour).Unix(), start.Add(12*time.Hour).Unix())
	resp2, _ := getRaw(t, narrow)
	if got := resp2.Header.Get("X-Analysis"); got != "window-disk-scan" {
		t.Fatalf("narrow window X-Analysis = %q, want window-disk-scan", got)
	}
	if p := resp2.Header.Get("X-Scan-Segments-Pruned"); p == "" || p == "0" {
		t.Fatalf("no segments pruned: X-Scan-Segments=%s pruned=%s",
			resp2.Header.Get("X-Scan-Segments"), p)
	}
	resp3, _ := getRaw(t, narrow)
	if resp3.Header.Get("X-Cache") != "HIT" {
		t.Fatal("repeat windowed report missed the cache")
	}

	// Parameter validation.
	for _, q := range []string{
		"?window=6h&from=1700000000",     // window excludes explicit bounds
		"?from=1700000100&to=1700000100", // empty window
		"?from=notatime",                 // unparseable
		"?full=1&window=6h",              // full needs the whole trace
		"?window=-2h",                    // negative
	} {
		resp, err := http.Get(base + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestReportWindowClampedToSpan: a window reaching past the trace is
// answered as its intersection with the trace span, with the same bytes
// whether the trace is resident, disk-resident or distributed, and a
// window that misses the span is a 400 everywhere.
func TestReportWindowClampedToSpan(t *testing.T) {
	tr := genTrace(t, "CC-b", 2, 30*time.Hour)
	start, end := tr.Meta.Start, tr.Meta.Start.Add(tr.Meta.Length)
	span := func(from, to time.Time) string {
		return "?from=" + from.Format(time.RFC3339Nano) + "&to=" + to.Format(time.RFC3339Nano)
	}

	_, resident := newTestServer(t)
	ingestTrace(t, resident, "clamp", tr)
	_, disk := diskServer(t, t.TempDir(), Config{MaxTotalJobs: 1})
	ingestTrace(t, disk, "clamp", tr)
	nodes := newTestCluster(t, 3, nil)
	ingestTrace(t, nodes[0].ts, "clamp", tr)
	sources := []struct{ name, base, analysis string }{
		{"resident", resident.URL, "window-scan"},
		{"disk-resident", disk.URL, "window-disk-scan"},
		{"cluster", nodes[1].ts.URL, "scatter"},
	}

	// want is the in-span window each query must be answered as, read
	// from the resident server.
	cases := []struct{ name, query, want string }{
		{"in-span", span(start.Add(2*time.Hour), start.Add(8*time.Hour)), span(start.Add(2*time.Hour), start.Add(8*time.Hour))},
		{"partly-out", span(start.Add(-5*time.Hour), start.Add(8*time.Hour)), span(start, start.Add(8*time.Hour))},
		{"far-out", "?from=0&to=9999999999", span(start, end)},
		{"window-longer-than-trace", "?window=48h", span(start, end)},
	}
	for _, c := range cases {
		_, want := getReport(t, resident.URL, "clamp", c.want)
		for _, src := range sources {
			t.Run(src.name+"/"+c.name, func(t *testing.T) {
				code, hdr, body := fetchRaw(t, src.base+"/v1/traces/clamp/report"+c.query)
				if code != http.StatusOK {
					t.Fatalf("%s: %d %s", c.query, code, clip(body))
				}
				if !bytes.Equal(body, want) {
					t.Errorf("%s: %d bytes, want the %d bytes of %s", c.query, len(body), len(want), c.want)
				}
				if hdr.Get("X-Cache") == "MISS" && hdr.Get("X-Analysis") != src.analysis {
					t.Errorf("%s: X-Analysis %q, want %q", c.query, hdr.Get("X-Analysis"), src.analysis)
				}
			})
		}
	}
	for _, src := range sources {
		code, _, body := fetchRaw(t, src.base+"/v1/traces/clamp/report?from=0&to=1000")
		if code != http.StatusBadRequest {
			t.Errorf("%s: window before the trace: %d %s, want 400", src.name, code, clip(body))
		}
	}
}

// TestSubSecondWindowsKeepApart: two windows whose from bounds fall in
// the same second, one holding a job and one starting 1 ms past its
// submit time, are two result-cache entries: the second request is a
// MISS answered with a fresh server's bytes, not the first window's.
func TestSubSecondWindowsKeepApart(t *testing.T) {
	tr := genTrace(t, "CC-b", 1, 25*time.Hour)
	var j *trace.Job
	for _, c := range tr.Jobs[len(tr.Jobs)/2:] {
		if c.SubmitTime.Nanosecond() < 990*int(time.Millisecond) {
			j = c
			break
		}
	}
	if j == nil {
		t.Fatal("no job submitted early enough in its second")
	}
	sec := j.SubmitTime.Truncate(time.Second)
	to := sec.Add(6 * time.Hour).Unix()
	holding := fmt.Sprintf("?from=%d&to=%d", sec.Unix(), to)
	past := fmt.Sprintf("?from=%s&to=%d", j.SubmitTime.Add(time.Millisecond).UTC().Format(time.RFC3339Nano), to)

	_, fresh := newTestServer(t)
	ingestTrace(t, fresh, "sub", tr)
	_, want := getReport(t, fresh.URL, "sub", past)

	_, ts := newTestServer(t)
	ingestTrace(t, ts, "sub", tr)
	_, first := getReport(t, ts.URL, "sub", holding)
	hdr, got := getReport(t, ts.URL, "sub", past)
	if bytes.Equal(first, want) {
		t.Fatalf("the windows %s and %s answer the same bytes; the job at %s does not tell them apart", holding, past, j.SubmitTime)
	}
	if x := hdr.Get("X-Cache"); x != "MISS" {
		t.Errorf("%s after %s: X-Cache %q, want MISS", past, holding, x)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s after %s: %d bytes, want a fresh server's %d", past, holding, len(got), len(want))
	}
}

// TestQueryBoolStrict covers the silent-false fix: a malformed boolean
// is a 400, not a quiet default.
func TestQueryBoolStrict(t *testing.T) {
	_, ts := newTestServer(t)
	ingestTrace(t, ts, "mine", genTrace(t, "CC-b", 1, 25*time.Hour))
	for _, q := range []string{"?full=bogus", "?sketch=ture", "?full=TRUE"} {
		resp, err := http.Get(ts.URL + "/v1/traces/mine/report" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", q, resp.StatusCode, clip(body))
		}
	}
	// The accepted spellings still work.
	for _, q := range []string{"", "?sketch=0", "?sketch=false", "?sketch=no", "?sketch=1"} {
		resp, err := http.Get(ts.URL + "/v1/traces/mine/report" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d, want 200", q, resp.StatusCode)
		}
	}
}
