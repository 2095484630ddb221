package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// doDelete issues a DELETE and returns the response (body closed).
func doDelete(t testing.TB, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// diskServer starts a server over a durable data dir with small
// segments so every test trace spans several.
func diskServer(t testing.TB, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.DataDir = dir
	if cfg.SegmentJobs == 0 {
		cfg.SegmentJobs = 200
	}
	return newTestServerCfg(t, cfg)
}

// restartWithoutSnapshots closes a disk server, deletes every persisted
// partial snapshot in its data dir, and starts a fresh server there:
// its traces recover with no frozen partial, so cold reports must scan
// the segments ("disk-scan").
func restartWithoutSnapshots(t testing.TB, s *Server, ts *httptest.Server, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "traces", "*", "g*.partial"))
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range snaps {
		if err := os.Remove(snap); err != nil {
			t.Fatal(err)
		}
	}
	return diskServer(t, dir, cfg)
}

// TestRestartRoundTrip is the durability acceptance test: ingest the
// FB-2009 day-1 trace, capture the cold report, restart the store
// (fresh Server over the same dir), and require the recovered cold
// report to be byte-identical and served from the persisted partial —
// no job rescan — as the X-Analysis header proves.
func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := genTrace(t, "FB-2009", 1, 24*time.Hour)

	s1, ts1 := diskServer(t, dir, Config{})
	info := ingestTrace(t, ts1, "fb2009-day1", tr)

	resp, before := getRaw(t, ts1.URL+"/v1/traces/fb2009-day1/report")
	if got := resp.Header.Get("X-Analysis"); got != "ingest-partial" {
		t.Fatalf("pre-restart cold report X-Analysis = %q, want ingest-partial", got)
	}
	if st := s1.Store().Stats(); st.DiskTraces != 1 || st.ResidentJobs != tr.Len() {
		t.Fatalf("pre-restart stats: %+v", st)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// A brand-new process: nothing in memory, everything from disk.
	s2, ts2 := diskServer(t, dir, Config{})
	recovered := s2.Recovered()
	if len(recovered) != 1 || recovered[0] != info {
		t.Fatalf("recovered identity %+v, want %+v", recovered, info)
	}
	if st := s2.Store().Stats(); st.ResidentJobs != 0 || st.TotalJobs != tr.Len() || st.Partials != 1 {
		t.Fatalf("post-restart stats: %+v (trace should be disk-resident with a partial)", st)
	}

	resp, after := getRaw(t, ts2.URL+"/v1/traces/fb2009-day1/report")
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("post-restart report X-Cache = %q, want MISS (fresh cache)", got)
	}
	if got := resp.Header.Get("X-Analysis"); got != "recovered-partial" {
		t.Fatalf("post-restart cold report X-Analysis = %q, want recovered-partial", got)
	}
	if !bytes.Equal(before, after) {
		t.Error("post-restart report bytes differ from pre-restart bytes")
	}
	// Jobs stayed on disk: serving the report did not load them.
	if st := s2.Store().Stats(); st.ResidentJobs != 0 {
		t.Errorf("report from partial should not load jobs; resident=%d", st.ResidentJobs)
	}

	// An endpoint that genuinely needs the jobs reloads them from the
	// segments and produces a working result.
	resp, body := getRaw(t, ts2.URL+"/v1/traces/fb2009-day1/replay?nodes=600")
	if resp.StatusCode != 200 {
		t.Fatalf("replay after restart: %d %s", resp.StatusCode, clip(body))
	}
	if st := s2.Store().Stats(); st.ResidentJobs != tr.Len() || st.Reloads != 1 {
		t.Errorf("replay should reload the trace: %+v", st)
	}
}

// TestSpillIngestAndOutOfCoreReport is the out-of-core acceptance test:
// an upload exceeding the whole in-memory job budget is accepted (the
// memory-only store rejects it), lands disk-resident, and its report —
// scanned out-of-core from the segments when no partial applies — is
// byte-identical to what an unconstrained in-memory server computes.
func TestSpillIngestAndOutOfCoreReport(t *testing.T) {
	tr := genTrace(t, "CC-b", 1, 30*time.Hour)
	budget := tr.Len() / 3

	// Reference bytes from a plain in-memory server.
	_, tsRef := newTestServer(t)
	ingestTrace(t, tsRef, "ref", tr)
	_, want := getRaw(t, tsRef.URL+"/v1/traces/ref/report")
	_, want3 := getRaw(t, tsRef.URL+"/v1/traces/ref/report?top=3")

	dir := t.TempDir()
	cfg := Config{MaxTotalJobs: budget}
	s, ts := diskServer(t, dir, cfg)
	info := ingestTrace(t, ts, "big", tr)
	if info.Jobs != tr.Len() {
		t.Fatalf("spilled ingest reports %d jobs, want %d", info.Jobs, tr.Len())
	}
	st := s.Store().Stats()
	if st.Spills != 1 || st.ResidentJobs != 0 || st.DiskTraces != 1 {
		t.Fatalf("after spill: %+v", st)
	}
	// Without the snapshot the report must scan the segments.
	s, ts = restartWithoutSnapshots(t, s, ts, dir, cfg)

	resp, got := getRaw(t, ts.URL+"/v1/traces/big/report")
	if x := resp.Header.Get("X-Analysis"); x != "disk-scan" {
		t.Fatalf("spilled report X-Analysis = %q, want disk-scan", x)
	}
	if !bytes.Equal(got, want) {
		t.Error("out-of-core report differs from in-memory reference")
	}
	// Only report bytes are cached: a finalization variant scans again.
	resp, got = getRaw(t, ts.URL+"/v1/traces/big/report?top=3")
	if x := resp.Header.Get("X-Analysis"); x != "disk-scan" {
		t.Errorf("top=3 after scan X-Analysis = %q, want disk-scan", x)
	}
	if !bytes.Equal(got, want3) {
		t.Error("out-of-core top=3 report differs from in-memory reference")
	}
	// Jobs never became resident: the analysis really ran out-of-core.
	if st := s.Store().Stats(); st.ResidentJobs != 0 {
		t.Errorf("out-of-core scan loaded %d jobs into memory", st.ResidentJobs)
	}

	// A materializing endpoint on a trace bigger than the whole budget
	// is refused with 422, not OOM'd.
	resp, body := getRaw(t, ts.URL+"/v1/traces/big/report?full=1")
	if resp.StatusCode != 422 {
		t.Errorf("full report on over-budget trace: %d %s", resp.StatusCode, clip(body))
	}
}

// pausedSource yields a trace's jobs but, before job at, closes
// reached and blocks until resume is closed: an upload held mid-stream.
type pausedSource struct {
	trace.Source
	at, n           int
	reached, resume chan struct{}
}

func (p *pausedSource) Next() (*trace.Job, error) {
	if p.n == p.at {
		close(p.reached)
		<-p.resume
	}
	p.n++
	return p.Source.Next()
}

// TestOverlappingUploadsLastCommitWins: a spilled upload held
// mid-stream while a Put of the same name commits keeps the segments it
// has written, and its own later commit wins: the trace's first 6 h
// answer with the reference bytes, from a disk scan whose storage.scan
// span the request ring shows, and a restart recovers the upload.
func TestOverlappingUploadsLastCommitWins(t *testing.T) {
	tr := genTrace(t, "CC-b", 1, 30*time.Hour)
	start := tr.Meta.Start
	window := fmt.Sprintf("/report?from=%d&to=%d", start.Unix(), start.Add(6*time.Hour).Unix())

	_, tsRef := newTestServer(t)
	ingestTrace(t, tsRef, "ref", tr)
	_, want := getRaw(t, tsRef.URL+"/v1/traces/ref"+window)

	dir := t.TempDir()
	cfg := Config{MaxTotalJobs: tr.Len() / 3}
	s, ts := diskServer(t, dir, cfg)
	src := &pausedSource{Source: trace.NewSliceSource(tr), at: tr.Len() / 2, reached: make(chan struct{}), resume: make(chan struct{})}
	var info TraceInfo
	done := make(chan error, 1)
	go func() {
		var err error
		info, err = s.Store().Ingest("x", src)
		done <- err
	}()
	<-src.reached
	if _, err := s.Store().Put("x", genTrace(t, "CC-b", 2, 25*time.Hour)); err != nil {
		close(src.resume)
		t.Fatal(err)
	}
	close(src.resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	resp, got := getRaw(t, ts.URL+"/v1/traces/x"+window)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("first 6 h of the last commit: %d, %d bytes %s, want 200 with the reference %d bytes", resp.StatusCode, len(got), clip(got), len(want))
	}
	if x := resp.Header.Get("X-Analysis"); x != "window-disk-scan" {
		t.Errorf("X-Analysis %q, want window-disk-scan", x)
	}
	id := resp.Header.Get("X-Request-Id")
	var spans []string
	settle(func() bool {
		for _, rec := range s.metrics.ring.Snapshot(0, 0) {
			if rec.ID == id {
				for _, sp := range rec.Spans {
					spans = append(spans, sp.Name)
				}
				return true
			}
		}
		return false
	})
	if !slices.Equal(spans, []string{"storage.scan", "core.finalize", "core.marshal"}) {
		t.Errorf("window-disk-scan spans %v, want storage.scan, core.finalize, core.marshal", spans)
	}

	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := diskServer(t, dir, cfg)
	if list := s2.Store().List(); len(list) != 1 || list[0].Fingerprint != info.Fingerprint {
		t.Fatalf("after restart the store lists %+v, want one trace %.12s", list, info.Fingerprint)
	}
}

// TestSpillWithPartialServesWithoutScan: with partials on, the spilled
// upload builds its aggregate inline while streaming to disk, so even
// the disk-resident cold report does no per-job work — and the
// aggregate covers each job exactly once (the buffered prefix observed
// before the spill switch must not be observed again), so the report
// bytes equal the in-memory path's.
func TestSpillWithPartialServesWithoutScan(t *testing.T) {
	tr := genTrace(t, "CC-e", 2, 30*time.Hour)

	_, tsRef := newTestServer(t)
	ingestTrace(t, tsRef, "ref", tr)
	refResp, want := getRaw(t, tsRef.URL+"/v1/traces/ref/report")
	if x := refResp.Header.Get("X-Analysis"); x != "ingest-partial" {
		t.Fatalf("reference report X-Analysis = %q", x)
	}

	s, ts := diskServer(t, t.TempDir(), Config{MaxTotalJobs: tr.Len() / 2})
	ingestTrace(t, ts, "big", tr)
	if st := s.Store().Stats(); st.Spills != 1 || st.Partials != 1 {
		t.Fatalf("after spill: %+v", st)
	}
	v, err := s.Store().View("big")
	if err != nil {
		t.Fatal(err)
	}
	if v.Partial == nil || v.Partial.Jobs() != tr.Len() {
		t.Fatalf("spilled partial observed %d jobs, trace has %d (buffered prefix double-observed?)",
			v.Partial.Jobs(), tr.Len())
	}
	resp, got := getRaw(t, ts.URL+"/v1/traces/big/report")
	if x := resp.Header.Get("X-Analysis"); x != "ingest-partial" {
		t.Errorf("spilled-with-partial report X-Analysis = %q, want ingest-partial", x)
	}
	if !bytes.Equal(got, want) {
		t.Error("spilled-partial report differs from the in-memory path's bytes")
	}
}

// TestFullReportStaleView: a full report computed through a view of a
// disk-resident trace whose name has been re-uploaded since answers the
// view's own content, which the result cache files under the view's
// fingerprint, or fails. It never answers the new upload's content.
func TestFullReportStaleView(t *testing.T) {
	old := genTrace(t, "CC-b", 1, 26*time.Hour)
	replacement := genTrace(t, "CC-b", 2, 26*time.Hour)
	s, ts := diskServer(t, t.TempDir(), Config{})
	ingestTrace(t, ts, "x", old)
	evict(t, s, "x")
	v, err := s.Store().View("x")
	if err != nil {
		t.Fatal(err)
	}
	ingestTrace(t, ts, "x", replacement)

	body, err := s.computeReport(httptest.NewRecorder(), nil, v, reportQuery{full: true, top: 8})
	if err != nil {
		t.Logf("the stale view failed: %v", err)
		return
	}
	if bytes.Equal(body, fullReportBytes(t, replacement, 8)) {
		t.Fatal("the stale view answered the re-upload's report, which the cache would file under the old fingerprint")
	}
	if want := fullReportBytes(t, old, 8); !bytes.Equal(body, want) {
		t.Errorf("the stale view's report differs from its own content's (first diff at byte %d of %d)", firstDiff(body, want), len(want))
	}
}

// TestEvictionSpillsInsteadOfRejecting: with backing, filling the hot
// tier evicts the least-recently-used resident copy instead of
// rejecting the new upload; the evicted trace keeps serving from disk.
func TestEvictionSpillsInsteadOfRejecting(t *testing.T) {
	a := genTrace(t, "CC-b", 1, 26*time.Hour)
	b := genTrace(t, "CC-e", 2, 26*time.Hour)
	budget := a.Len() + b.Len()/2 // both fit on disk, not both in memory
	s, ts := diskServer(t, t.TempDir(), Config{MaxTotalJobs: budget})

	ingestTrace(t, ts, "a", a)
	ingestTrace(t, ts, "b", b)

	st := s.Store().Stats()
	if st.Traces != 2 || st.Rejected != 0 {
		t.Fatalf("both uploads must be accepted: %+v", st)
	}
	if st.Evictions == 0 && st.Spills == 0 {
		t.Fatalf("hot tier over budget with no eviction or spill: %+v", st)
	}
	if st.ResidentJobs > budget {
		t.Fatalf("resident jobs %d exceed budget %d", st.ResidentJobs, budget)
	}

	// Every trace still answers reports, resident or not.
	for _, name := range []string{"a", "b"} {
		resp, body := getRaw(t, ts.URL+"/v1/traces/"+name+"/report")
		if resp.StatusCode != 200 {
			t.Errorf("report %s after eviction: %d %s", name, resp.StatusCode, clip(body))
		}
	}
}

// TestDeleteCollectsSegments: DELETE on a disk-backed trace removes its
// on-disk generation too, so a restart does not resurrect it.
func TestDeleteCollectsSegments(t *testing.T) {
	dir := t.TempDir()
	tr := genTrace(t, "CC-e", 1, 26*time.Hour)
	s1, ts1 := diskServer(t, dir, Config{})
	ingestTrace(t, ts1, "doomed", tr)
	if st := s1.Store().Stats(); st.DiskBytes == 0 {
		t.Fatalf("no disk usage recorded: %+v", st)
	}
	resp := doDelete(t, ts1.URL+"/v1/traces/doomed")
	if resp.StatusCode != 204 {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := diskServer(t, dir, Config{})
	if got := len(s2.Recovered()); got != 0 {
		t.Errorf("deleted trace resurrected: %d recovered", got)
	}
}

// TestUnsortedSpillFallsBackToSort: an out-of-order upload that
// overflows the remaining budget but fits the whole tier is read back,
// sorted, and stored normally — same identity as uploading it sorted.
func TestUnsortedSpillFallsBackToSort(t *testing.T) {
	tr := genTrace(t, "CC-e", 3, 26*time.Hour)
	sortedFP, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the jobs: thoroughly unsorted.
	rev := trace.New(tr.Meta)
	for i := tr.Len() - 1; i >= 0; i-- {
		rev.Add(tr.Jobs[i])
	}

	s := mustNew(t, Config{MaxTotalJobs: tr.Len() + 10, DataDir: t.TempDir(), SegmentJobs: 100})
	// Eat most of the budget so the upload overflows mid-stream.
	filler := genTrace(t, "CC-b", 1, 25*time.Hour)
	if _, err := s.Store().Put("filler", filler); err != nil {
		t.Fatal(err)
	}

	info, err := s.Store().Ingest("unsorted", trace.NewSliceSource(rev))
	if err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != sortedFP {
		t.Errorf("sorted-fallback fingerprint %s, want %s", info.Fingerprint, sortedFP)
	}
	if st := s.Store().Stats(); st.Traces != 2 {
		t.Errorf("stats after fallback: %+v", st)
	}
}

// TestSpillFingerprintMatchesMemoryPath: the fingerprint a spilled
// (sorted, complete-header) upload commits equals the in-memory path's
// fingerprint for the same bytes — the invariant that keeps
// fingerprint-keyed caches coherent across tiers.
func TestSpillFingerprintMatchesMemoryPath(t *testing.T) {
	tr := genTrace(t, "CC-b", 2, 26*time.Hour)
	wantFP, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	s, ts := diskServer(t, t.TempDir(), Config{MaxTotalJobs: tr.Len() / 4})
	info := ingestTrace(t, ts, "spilled", tr)
	if info.Fingerprint != wantFP {
		t.Errorf("spilled fingerprint %s, want %s", info.Fingerprint, wantFP)
	}
	if st := s.Store().Stats(); st.Spills != 1 {
		t.Errorf("expected a spill: %+v", st)
	}
}

// TestUnsortedSpillRejectClosesSegments: an out-of-order upload too big
// to sort is rejected while its staged segments are being read back;
// the reject must close the abandoned readers, so no descriptor is left
// pointing into the data dir (at the unlinked segment).
func TestUnsortedSpillRejectClosesSegments(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to inspect")
	}
	tr := genTrace(t, "CC-e", 3, 26*time.Hour)
	rev := trace.New(tr.Meta)
	for i := tr.Len() - 1; i >= 0; i-- {
		rev.Add(tr.Jobs[i])
	}
	dir := t.TempDir()
	s := mustNew(t, Config{MaxTotalJobs: tr.Len() / 3, DataDir: dir, SegmentJobs: 100})
	if _, err := s.Store().Ingest("unsorted", trace.NewSliceSource(rev)); !errors.Is(err, errUnsortedSpill) {
		t.Fatalf("over-budget unsorted ingest: err %v, want errUnsortedSpill", err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir) {
			t.Errorf("descriptor %s still open on %s", fd.Name(), target)
		}
	}
}
