package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/trace"
)

// dropAllSessions abandons every open append session, as a restart
// would — the white-box shortcut that lets compaction tests fragment a
// trace with live appends and then make it eligible without cycling
// the whole server.
func dropAllSessions(s *Server) {
	st := s.Store()
	st.mu.Lock()
	for name := range st.appendStates {
		st.invalidateAppendLocked(name)
	}
	st.mu.Unlock()
}

// decodeAppend unmarshals one append response body.
func decodeAppend(t testing.TB, body []byte) AppendResponse {
	t.Helper()
	var ar AppendResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("decoding append response %s: %v", clip(body), err)
	}
	return ar
}

// TestCompactionDifferential is the compaction acceptance gate at the
// serving layer: a trace fragmented across two append sessions (a
// restart between them) must report byte-identically before and after
// Compact — whole and windowed, freshly scanned each time — the stats
// counters must record the rewrite, the compacted mark must stop a
// second sweep that would otherwise fire, a later append must grow the
// compacted generation onto the golden full-trace fingerprint, and a
// restart must recover the compacted generation.
func TestCompactionDifferential(t *testing.T) {
	tr := genTrace(t, "FB-2009", 1, 24*time.Hour)
	raw, err := os.ReadFile(filepath.Join("..", "core", "testdata", "fb2009_day1.fingerprint"))
	if err != nil {
		t.Fatal(err)
	}
	wantFP := string(bytes.TrimSpace(raw))
	batches := splitBatches(tr, 10)
	n9 := tr.Len() - len(batches[9])
	win := fmt.Sprintf("from=%d&to=%d", tr.Meta.Start.Add(6*time.Hour).Unix(), tr.Meta.Start.Add(18*time.Hour).Unix())

	// Reference bytes for the nine-batch prefix from a plain in-memory
	// server.
	pre9 := trace.New(tr.Meta)
	pre9.Jobs = tr.Jobs[:n9]
	_, tsRef := newTestServer(t)
	refInfo := ingestTrace(t, tsRef, "ref9", pre9)
	_, wantWhole := getRaw(t, tsRef.URL+"/v1/traces/ref9/report")
	_, wantWin := getRaw(t, tsRef.URL+"/v1/traces/ref9/report?"+win)

	// Fragment across a restart: two append sessions over one data dir.
	dir := t.TempDir()
	cfg := Config{SegmentJobs: 400}
	sA, tsA := diskServer(t, dir, cfg)
	for i := 0; i < 5; i++ {
		if resp, body := postAppend(t, tsA, "live", tr.Meta, batches[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("session A batch %d: %d %s", i, resp.StatusCode, clip(body))
		}
	}
	tsA.Close()
	if err := sA.Close(); err != nil {
		t.Fatal(err)
	}
	sB, tsB := diskServer(t, dir, cfg)
	for i := 5; i < 9; i++ {
		if resp, body := postAppend(t, tsB, "live", tr.Meta, batches[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("session B batch %d: %d %s", i, resp.StatusCode, clip(body))
		}
	}
	// Fresh server over the fragmented dir, without snapshots so every
	// report must scan: capture both scan paths.
	s, ts := restartWithoutSnapshots(t, sB, tsB, dir, cfg)
	resp, gotWhole := getRaw(t, ts.URL+"/v1/traces/live/report")
	if x := resp.Header.Get("X-Analysis"); x != "disk-scan" {
		t.Fatalf("fragmented report X-Analysis = %q, want disk-scan", x)
	}
	if !bytes.Equal(gotWhole, wantWhole) {
		t.Error("fragmented disk-scan report differs from the in-memory reference")
	}
	resp, gotWin := getRaw(t, ts.URL+"/v1/traces/live/report?"+win)
	if x := resp.Header.Get("X-Analysis"); x != "window-disk-scan" {
		t.Fatalf("fragmented windowed X-Analysis = %q, want window-disk-scan", x)
	}
	if !bytes.Equal(gotWin, wantWin) {
		t.Error("fragmented windowed report differs from the in-memory reference")
	}

	fp := refInfo.Fingerprint
	n, err := s.Store().Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Compact rewrote %d traces, want 1", n)
	}
	st := s.Store().Stats()
	if st.Compactions != 1 || st.SegmentsMerged < 1 || st.BlocksRefilled < 1 {
		t.Fatalf("post-compaction stats: compactions=%d merged=%d refilled=%d",
			st.Compactions, st.SegmentsMerged, st.BlocksRefilled)
	}
	// Identity preserved: same fingerprint, so the cache would mask a
	// divergence — drop it and force fresh scans of the packed layout.
	s.Cache().InvalidatePrefix(fp + "|")
	resp, again := getRaw(t, ts.URL+"/v1/traces/live/report")
	if x := resp.Header.Get("X-Analysis"); x != "disk-scan" {
		t.Fatalf("compacted report X-Analysis = %q, want disk-scan", x)
	}
	if !bytes.Equal(again, wantWhole) {
		t.Error("compacted disk-scan report diverges: the rewrite was not a byte-identical no-op")
	}
	resp, againWin := getRaw(t, ts.URL+"/v1/traces/live/report?"+win)
	if x := resp.Header.Get("X-Analysis"); x != "window-disk-scan" {
		t.Fatalf("compacted windowed X-Analysis = %q, want window-disk-scan", x)
	}
	if !bytes.Equal(againWin, wantWin) {
		t.Error("compacted windowed report diverges: the rewrite was not a byte-identical no-op")
	}
	// A second sweep finds nothing: the compacted mark holds even where
	// the triggers alone would fire. Reopened at a 5000-job cap, the
	// generation packed at 400 jobs per segment has more segments than
	// the trigger allows; with the mark stripped, the same generation
	// does compact.
	wide := Config{SegmentJobs: 5000}
	for _, marked := range []bool{true, false} {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !marked {
			unmarkCompacted(t, dir, "live")
		}
		s, ts = diskServer(t, dir, wide)
		want := 0
		if !marked {
			want = 1
		}
		if n, err := s.Store().Compact(); err != nil || n != want {
			t.Fatalf("sweep at the wider cap (marked=%t): n=%d err=%v, want %d", marked, n, err, want)
		}
	}

	// The compacted generation still grows: the tail batch lands on the
	// golden full-trace fingerprint, proving the append session replays
	// the packed stream exactly.
	resp2, body := postAppend(t, ts, "live", tr.Meta, batches[9])
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("append after compaction: %d %s", resp2.StatusCode, clip(body))
	}
	last := decodeAppend(t, body)
	if last.Fingerprint != wantFP || last.Jobs != tr.Len() {
		t.Fatalf("after tail append: %s/%d jobs, want golden %s/%d", last.Fingerprint, last.Jobs, wantFP, tr.Len())
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the compacted-then-grown trace recovers intact.
	sD, tsD := diskServer(t, dir, wide)
	defer sD.Close()
	rec := sD.Recovered()
	if len(rec) != 1 || rec[0].Fingerprint != wantFP || rec[0].Jobs != tr.Len() {
		t.Fatalf("recovered %+v, want golden %s/%d", rec, wantFP, tr.Len())
	}
	_ = tsD
}

// TestCompactionSweptViewReads: a read that resolved its view before a
// compaction sweep still answers through that stale view. The sweep
// unlinks the view's segments, so its generation no longer opens; the
// reload behind full=1, synth and replay and the disk scan each retry
// once on a fresh view of the same fingerprint, and return the
// committed jobs and the same report bytes.
func TestCompactionSweptViewReads(t *testing.T) {
	tr := genTrace(t, "FB-2009", 1, 24*time.Hour)
	batches := splitBatches(tr, 6)
	dir := t.TempDir()
	cfg := Config{SegmentJobs: 400}
	// Fragment across a restart, then restart once more: the trace is
	// disk-resident, with no open append session to stop the sweep.
	s, ts := diskServer(t, dir, cfg)
	for i, batch := range batches {
		if i == 3 {
			ts.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, ts = diskServer(t, dir, cfg)
		}
		if resp, body := postAppend(t, ts, "live", tr.Meta, batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, resp.StatusCode, clip(body))
		}
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, ts = diskServer(t, dir, cfg)
	defer ts.Close()

	st := s.Store()
	v, err := st.View("live")
	if err != nil {
		t.Fatal(err)
	}
	if v.Trace != nil || v.Stored == nil {
		t.Fatal("the trace is resident; the test needs a disk-resident view")
	}
	scanReport := func(t *testing.T) []byte {
		t.Helper()
		p, _, err := s.scanStored(v, storage.ParallelScanOptions{Workers: 2})
		if err != nil {
			t.Fatalf("scan through the view: %v", err)
		}
		rep, err := p.Report(8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep.JSON())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := scanReport(t)

	if n, err := st.Compact(); err != nil || n != 1 {
		t.Fatalf("Compact: n=%d err=%v, want 1", n, err)
	}
	if _, err := v.Stored.Collect(); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the swept generation still reads (err %v); the test needs a stale view", err)
	}
	t.Run("reload", func(t *testing.T) {
		got, info, err := st.load(v)
		if err != nil {
			t.Fatalf("reload through the stale view: %v", err)
		}
		fp, err := got.Fingerprint()
		if err != nil || fp != v.Info.Fingerprint || info.Fingerprint != fp {
			t.Fatalf("reloaded fingerprint %.12s (info %.12s, err %v), want committed %.12s", fp, info.Fingerprint, err, v.Info.Fingerprint)
		}
	})
	t.Run("scan", func(t *testing.T) {
		if !bytes.Equal(scanReport(t), want) {
			t.Fatal("scan through the stale view reports different bytes")
		}
	})
}

// unmarkCompacted clears the compacted mark in name's committed
// manifest, as if the generation had been written by anything but the
// compactor. The store under dir must be closed.
func unmarkCompacted(t *testing.T, dir, name string) {
	t.Helper()
	path := filepath.Join(dir, "traces", name, "manifest.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man storage.Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	if !man.Compacted {
		t.Fatalf("%s is not marked compacted", path)
	}
	man.Compacted = false
	if b, err = json.Marshal(&man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompactSkipsOpenSession: a trace mid-append is not a compaction
// candidate; once its session is gone it is.
func TestCompactSkipsOpenSession(t *testing.T) {
	tr := genTrace(t, "CC-b", 7, 26*time.Hour)
	batches := splitBatches(tr, 6)
	s, ts := diskServer(t, t.TempDir(), Config{SegmentJobs: 5000})
	for i := 0; i < 3; i++ {
		if resp, body := postAppend(t, ts, "live", tr.Meta, batches[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, resp.StatusCode, clip(body))
		}
	}
	// The session is open: the sweep must leave it alone, though the
	// fragmented trace triggers once the session is dropped.
	if n, err := s.Store().Compact(); err != nil || n != 0 {
		t.Fatalf("compacting under an open session: n=%d err=%v, want skip", n, err)
	}
	dropAllSessions(s)
	if n, err := s.Store().Compact(); err != nil || n != 1 {
		t.Fatalf("compacting after session drop: n=%d err=%v, want 1", n, err)
	}
	// The dropped-then-compacted trace still accepts the rest.
	for i := 3; i < 6; i++ {
		if resp, body := postAppend(t, ts, "live", tr.Meta, batches[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d after compaction: %d %s", i, resp.StatusCode, clip(body))
		}
	}
	var got TraceInfo
	getJSON(t, ts.URL+"/v1/traces/live", &got)
	_, tsRef := newTestServer(t)
	want := ingestTrace(t, tsRef, "ref", tr)
	if got.Fingerprint != want.Fingerprint || got.Jobs != want.Jobs {
		t.Fatalf("final identity %s/%d, one-shot is %s/%d", got.Fingerprint, got.Jobs, want.Fingerprint, want.Jobs)
	}
}

// TestControlByteNamesKeepIdentity: the canonical job line writes a
// backspace or form feed as \u0008 or \u000c, and every trace's
// fingerprint hashes that line. A trace whose names and paths hold them
// keeps the fingerprints it was committed with (pinned here, as the
// encoder before Report.AppendJSON computed them) through a restart's
// recovery, an append session's replay, which refuses a fingerprint
// mismatch, a compaction sweep, which re-hashes its rewrite and
// discards one that differs, and a second restart.
func TestControlByteNamesKeepIdentity(t *testing.T) {
	const (
		wantHalf = "0f811be06eb9e122bc07c4affa7a9beea8a8a1bcefbab66f9b2378c273151683"
		wantFull = "da8fadb270489ada0bab31faecd284eaa01cde478523a3caf7d1bd6592dbfb46"
	)
	tr := genTrace(t, "CC-b", 7, 26*time.Hour)
	for i, j := range tr.Jobs {
		switch i % 3 {
		case 0:
			j.Name += "\bnightly"
		case 1:
			j.InputPath += "\f"
		}
	}
	batches := splitBatches(tr, 6)
	dir := t.TempDir()
	cfg := Config{SegmentJobs: 5000}
	restart := func(s *Server, ts *httptest.Server, want string) (*Server, *httptest.Server) {
		t.Helper()
		ts.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, ts = diskServer(t, dir, cfg)
		if rec := s.Recovered(); len(rec) != 1 || rec[0].Fingerprint != want {
			t.Fatalf("recovered %+v, want fingerprint %s", rec, want)
		}
		return s, ts
	}
	s, ts := diskServer(t, dir, cfg)
	post := func(i int) AppendResponse {
		t.Helper()
		resp, body := postAppend(t, ts, "live", tr.Meta, batches[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, resp.StatusCode, clip(body))
		}
		return decodeAppend(t, body)
	}
	for i := 0; i < 2; i++ {
		post(i)
	}
	if got := post(2).Fingerprint; got != wantHalf {
		t.Fatalf("three batches fingerprint %s, committed identity %s", got, wantHalf)
	}
	s, ts = restart(s, ts, wantHalf)
	for i := 3; i < 6; i++ {
		post(i)
	}
	dropAllSessions(s)
	if n, err := s.Store().Compact(); err != nil || n != 1 {
		t.Fatalf("compacting: n=%d err=%v, want 1", n, err)
	}
	var got TraceInfo
	getJSON(t, ts.URL+"/v1/traces/live", &got)
	if got.Fingerprint != wantFull {
		t.Fatalf("compacted fingerprint %s, committed identity %s", got.Fingerprint, wantFull)
	}
	restart(s, ts, wantFull)
}

// TestCompactReapsIdleSessions: an append session is cached for the
// life of the process and pins its trace uncompactable, so the sweep
// loop reaps sessions that have gone a full interval without a batch.
// A reaped trace compacts; its next append transparently reopens a
// session against the packed generation and the identity still matches
// the one-shot upload.
func TestCompactReapsIdleSessions(t *testing.T) {
	tr := genTrace(t, "CC-b", 7, 26*time.Hour)
	batches := splitBatches(tr, 6)
	s, ts := diskServer(t, t.TempDir(), Config{SegmentJobs: 5000})
	for i := 0; i < 3; i++ {
		if resp, body := postAppend(t, ts, "live", tr.Meta, batches[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, resp.StatusCode, clip(body))
		}
	}
	// A generous idle bar leaves the just-used session alone.
	if n := s.Store().ReapIdleAppendSessions(time.Hour); n != 0 {
		t.Fatalf("reaped %d fresh session(s), want 0", n)
	}
	if n, err := s.Store().Compact(); err != nil || n != 0 {
		t.Fatalf("compacting under a fresh session: n=%d err=%v, want skip", n, err)
	}
	// Zero idle bar: the session has necessarily been idle that long.
	if n := s.Store().ReapIdleAppendSessions(0); n != 1 {
		t.Fatalf("reaped %d session(s), want 1", n)
	}
	if n, err := s.Store().Compact(); err != nil || n != 1 {
		t.Fatalf("compacting after reap: n=%d err=%v, want 1", n, err)
	}
	for i := 3; i < 6; i++ {
		if resp, body := postAppend(t, ts, "live", tr.Meta, batches[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d after reap+compaction: %d %s", i, resp.StatusCode, clip(body))
		}
	}
	var got TraceInfo
	getJSON(t, ts.URL+"/v1/traces/live", &got)
	_, tsRef := newTestServer(t)
	want := ingestTrace(t, tsRef, "ref", tr)
	if got.Fingerprint != want.Fingerprint || got.Jobs != want.Jobs {
		t.Fatalf("final identity %s/%d, one-shot is %s/%d", got.Fingerprint, got.Jobs, want.Fingerprint, want.Jobs)
	}
}

// TestCompactMemoryModeNoop: without a durable store there is nothing
// to compact and the sweep is a quiet no-op.
func TestCompactMemoryModeNoop(t *testing.T) {
	s, ts := newTestServer(t)
	tr := genTrace(t, "FB-2010", 1, 26*time.Hour)
	ingestTrace(t, ts, "mem", tr)
	if n, err := s.Store().Compact(); err != nil || n != 0 {
		t.Fatalf("memory-mode compact: n=%d err=%v, want a no-op", n, err)
	}
	if st := s.Store().Stats(); st.Compactions != 0 {
		t.Fatalf("memory-mode compact counted: %+v", st)
	}
}

// TestCompactWhileQuerying races background compaction against
// concurrent windowed disk scans (distinct windows defeat the cache,
// so every request really reads segments while the generation swaps
// under it). Run under -race; afterwards a fresh scan must match the
// pre-compaction reference bytes.
func TestCompactWhileQuerying(t *testing.T) {
	tr := genTrace(t, "CC-b", 7, 26*time.Hour)
	batches := splitBatches(tr, 12)
	s, ts := diskServer(t, t.TempDir(), Config{SegmentJobs: 5000})
	for i := range batches {
		if resp, body := postAppend(t, ts, "live", tr.Meta, batches[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, resp.StatusCode, clip(body))
		}
	}
	dropAllSessions(s)
	ref := fmt.Sprintf("from=%d&to=%d", tr.Meta.Start.Add(2*time.Hour).Unix(), tr.Meta.Start.Add(20*time.Hour).Unix())
	_, want := getRaw(t, ts.URL+"/v1/traces/live/report?"+ref)

	var wg sync.WaitGroup
	committed := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		n, err := s.Store().Compact()
		if err != nil {
			t.Errorf("concurrent compact: %v", err)
		}
		committed <- n
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				from := tr.Meta.Start.Add(time.Duration(g*8+i) * 10 * time.Minute)
				to := from.Add(12 * time.Hour)
				url := fmt.Sprintf("%s/v1/traces/live/report?from=%d&to=%d", ts.URL, from.Unix(), to.Unix())
				resp, body := getRaw(t, url)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query %d/%d during compaction: %d %s", g, i, resp.StatusCode, clip(body))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := <-committed; n != 1 {
		t.Fatalf("concurrent compact committed %d traces, want 1", n)
	}
	var got TraceInfo
	getJSON(t, ts.URL+"/v1/traces/live", &got)
	s.Cache().InvalidatePrefix(got.Fingerprint + "|")
	_, after := getRaw(t, ts.URL+"/v1/traces/live/report?"+ref)
	if !bytes.Equal(after, want) {
		t.Error("report after racing compaction diverges from the pre-compaction bytes")
	}
}

// TestCompactDuringAppend races the sweep against live append batches.
// Whatever interleaving the scheduler picks — the open session makes
// the trace ineligible, or a session opened mid-rewrite gets
// invalidated at commit and its batch transparently retries — every
// append must succeed and the final identity must equal the one-shot
// upload's. Run under -race.
func TestCompactDuringAppend(t *testing.T) {
	tr := genTrace(t, "FB-2010", 2, 26*time.Hour)
	batches := splitBatches(tr, 10)
	s, ts := diskServer(t, t.TempDir(), Config{SegmentJobs: 5000})
	// Seed fragmentation, then drop the session so the sweep sees an
	// eligible trace just as new appends race in.
	for i := 0; i < 4; i++ {
		if resp, body := postAppend(t, ts, "live", tr.Meta, batches[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, resp.StatusCode, clip(body))
		}
	}
	dropAllSessions(s)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := s.Store().Compact(); err != nil {
				t.Errorf("compact sweep %d: %v", i, err)
			}
		}
	}()
	for i := 4; i < 10; i++ {
		if resp, body := postAppend(t, ts, "live", tr.Meta, batches[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("racing batch %d: %d %s", i, resp.StatusCode, clip(body))
		}
	}
	wg.Wait()

	var got TraceInfo
	getJSON(t, ts.URL+"/v1/traces/live", &got)
	_, tsRef := newTestServer(t)
	want := ingestTrace(t, tsRef, "ref", tr)
	if got.Fingerprint != want.Fingerprint || got.Jobs != want.Jobs {
		t.Fatalf("after racing appends: %s/%d, one-shot is %s/%d", got.Fingerprint, got.Jobs, want.Fingerprint, want.Jobs)
	}
}

// TestClusterCompactionDifferential: appends fragment every shard
// replica; compacting each node must leave a re-scattered cluster
// report byte-identical to the single-node in-memory reference. The
// reports are sketched, so no frozen exact partial can answer them and
// every shard scans its segments.
func TestClusterCompactionDifferential(t *testing.T) {
	tr := genTrace(t, "CC-b", 5, 26*time.Hour)
	base := t.TempDir()
	nodes := newTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.DataDir = filepath.Join(base, fmt.Sprintf("n%d", i))
		cfg.SegmentJobs = 5000
	})
	// Seed with a sharded ingest (appends to a fresh name would land
	// the trace whole on one owner), then fragment every shard replica
	// with batched appends.
	batches := splitBatches(tr, 9)
	seed := trace.New(tr.Meta)
	for _, b := range batches[:3] {
		seed.Jobs = append(seed.Jobs, b...)
	}
	ingestTrace(t, nodes[0].ts, "jobs", seed)
	for i := 3; i < 9; i++ {
		if resp, body := postAppend(t, nodes[0].ts, "jobs", tr.Meta, batches[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("cluster append %d: %d %s", i, resp.StatusCode, clip(body))
		}
	}

	_, tsRef := newTestServer(t)
	ingestTrace(t, tsRef, "ref", tr)
	_, want := getRaw(t, tsRef.URL+"/v1/traces/ref/report?sketch=1")
	_, before := getReport(t, nodes[0].ts.URL, "jobs", "?sketch=1")
	if !bytes.Equal(before, want) {
		t.Fatal("fragmented cluster report differs from the single-node reference")
	}

	total := 0
	for _, nd := range nodes {
		dropAllSessions(nd.srv)
		n, err := nd.srv.Store().Compact()
		if err != nil {
			t.Fatalf("compacting node %s: %v", nd.id, err)
		}
		total += n
	}
	if total < 2 {
		t.Fatalf("cluster compaction rewrote %d shard replicas, want at least one per shard", total)
	}
	// Same fingerprints, so caches would mask a divergence: clear every
	// node and force a fresh scatter/gather over the packed shards.
	for _, nd := range nodes {
		nd.srv.Cache().InvalidatePrefix("")
	}
	_, after := getReport(t, nodes[0].ts.URL, "jobs", "?sketch=1")
	if !bytes.Equal(after, want) {
		t.Error("cluster report after compaction diverges from the single-node reference")
	}
}
