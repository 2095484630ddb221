package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// getRaw fetches a URL and returns the response plus body bytes.
func getRaw(t testing.TB, url string) (*http.Response, []byte) {
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
	return resp, body
}

// TestIngestBuildsPartial: a JSONL upload leaves a frozen partial
// aggregate next to the stored trace, and the first cold report is
// served from it (X-Analysis: ingest-partial) with bytes identical to
// the sequential streaming analysis of the stored snapshot.
func TestIngestBuildsPartial(t *testing.T) {
	s, ts := newTestServer(t)
	tr := genTrace(t, "CC-e", 3, 30*time.Hour)
	ingestTrace(t, ts, "mine", tr)

	if st := s.Store().Stats(); st.Partials != 1 {
		t.Fatalf("store holds %d partials after ingest, want 1", st.Partials)
	}
	v, err := s.Store().View("mine")
	if err != nil {
		t.Fatal(err)
	}
	stored, partial := v.Trace, v.Partial
	if partial == nil {
		t.Fatal("no partial aggregate stored")
	}
	if partial.Jobs() != stored.Len() {
		t.Fatalf("partial observed %d jobs, stored trace has %d", partial.Jobs(), stored.Len())
	}

	resp, body := getRaw(t, ts.URL+"/v1/traces/mine/report")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d %s", resp.StatusCode, clip(body))
	}
	if got := resp.Header.Get("X-Analysis"); got != "ingest-partial" {
		t.Errorf("cold report X-Analysis = %q, want ingest-partial", got)
	}

	rep, err := core.AnalyzeSource(trace.NewSliceSource(stored), core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Error("partial-served report differs from direct sequential analysis")
	}

	// The warm path hits the bytes tier; no analysis marker.
	resp2, body2 := getRaw(t, ts.URL+"/v1/traces/mine/report")
	if resp2.Header.Get("X-Cache") != "HIT" || resp2.Header.Get("X-Analysis") != "" {
		t.Errorf("second request: X-Cache=%q X-Analysis=%q, want HIT with no analysis",
			resp2.Header.Get("X-Cache"), resp2.Header.Get("X-Analysis"))
	}
	if !bytes.Equal(body2, body) {
		t.Error("cached report differs from cold report")
	}
}

// TestReportShardsParamAgreement: shards=K changes only how a cold
// scan-path report is computed, never its bytes — and the shard count
// is deliberately absent from the cache key.
func TestReportShardsParamAgreement(t *testing.T) {
	s, ts := httptestServerNoPartials(t)
	tr := genTrace(t, "CC-e", 3, 30*time.Hour)
	ingestTrace(t, ts, "mine", tr)
	if st := s.Store().Stats(); st.Partials != 0 {
		t.Fatalf("store holds %d partials with partials disabled", st.Partials)
	}

	var want []byte
	for i, q := range []string{"?shards=1", "?shards=4", "?shards=16", ""} {
		s.Cache().InvalidatePrefix("")
		resp, body := getRaw(t, ts.URL+"/v1/traces/mine/report"+q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report%s: %d %s", q, resp.StatusCode, clip(body))
		}
		if got := resp.Header.Get("X-Analysis"); got != "scan" {
			t.Errorf("report%s X-Analysis = %q, want scan", q, got)
		}
		if i == 0 {
			want = body
			continue
		}
		if !bytes.Equal(body, want) {
			t.Errorf("report%s differs from shards=1 bytes", q)
		}
	}

	// Out-of-range shard counts are a client error.
	resp, _ := getRaw(t, ts.URL+"/v1/traces/mine/report?shards=-1")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("shards=-1: %d, want 400", resp.StatusCode)
	}
	resp, _ = getRaw(t, ts.URL+"/v1/traces/mine/report?shards=9999")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("shards=9999: %d, want 400", resp.StatusCode)
	}
}

// httptestServerNoPartials starts a server with ingest-time aggregation
// off, so reports exercise the scan + aggregate-tier path.
func httptestServerNoPartials(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	s := mustNew(t, Config{DisablePartials: true})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestAggregateTierSharesScans: with no stored partial, the first scan
// parks its partial in the cache's aggregate tier; report variants that
// differ only in finalization (top=N) and sketch-mode requests reuse or
// add to that tier instead of rescanning per variant.
func TestAggregateTierSharesScans(t *testing.T) {
	s, ts := httptestServerNoPartials(t)
	tr := genTrace(t, "CC-e", 3, 30*time.Hour)
	ingestTrace(t, ts, "mine", tr)

	resp, _ := getRaw(t, ts.URL+"/v1/traces/mine/report")
	if got := resp.Header.Get("X-Analysis"); got != "scan" {
		t.Fatalf("first report X-Analysis = %q, want scan", got)
	}
	if cs := s.Cache().Stats(); cs.Aggregates != 1 || cs.AggregateMisses != 1 {
		t.Fatalf("after first scan: %+v", cs)
	}

	// A different finalization of the same aggregate: cold in the bytes
	// tier, hit in the aggregate tier.
	resp, _ = getRaw(t, ts.URL+"/v1/traces/mine/report?top=3")
	if got := resp.Header.Get("X-Analysis"); got != "cached-partial" {
		t.Errorf("top=3 report X-Analysis = %q, want cached-partial", got)
	}
	cs := s.Cache().Stats()
	if cs.AggregateHits != 1 || cs.AggregateMisses != 1 {
		t.Errorf("after top=3: %+v", cs)
	}

	// Sketch mode needs its own aggregate.
	getRaw(t, ts.URL+"/v1/traces/mine/report?sketch=1")
	if cs := s.Cache().Stats(); cs.Aggregates != 2 || cs.AggregateMisses != 2 {
		t.Errorf("after sketch=1: %+v", cs)
	}
}

// TestDeleteInvalidatesCaches is the DELETE handler contract: removing
// the last trace with a fingerprint drops its memoized results and
// aggregates from both cache tiers; a second name sharing the content
// keeps them alive.
func TestDeleteInvalidatesCaches(t *testing.T) {
	s, ts := newTestServer(t)
	tr := genTrace(t, "CC-e", 3, 30*time.Hour)
	info := ingestTrace(t, ts, "mine", tr)
	ingestTrace(t, ts, "twin", tr) // same content, same fingerprint

	// Warm both tiers under the shared fingerprint: a default report
	// (bytes tier) and a sketch report (aggregate tier + bytes tier).
	getRaw(t, ts.URL+"/v1/traces/mine/report")
	getRaw(t, ts.URL+"/v1/traces/mine/report?sketch=1")
	cs := s.Cache().Stats()
	if cs.Entries != 2 || cs.Aggregates != 1 {
		t.Fatalf("warmed cache: %+v", cs)
	}

	del := func(name string) *http.Response {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/traces/"+name, nil)
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

	// Deleting one holder keeps the shared fingerprint's entries.
	if resp := del("twin"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete twin: %d", resp.StatusCode)
	}
	if cs := s.Cache().Stats(); cs.Entries != 2 || cs.Aggregates != 1 {
		t.Errorf("cache dropped entries while a fingerprint holder remains: %+v", cs)
	}

	// Deleting the last holder purges both tiers.
	if resp := del("mine"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete mine: %d", resp.StatusCode)
	}
	if cs := s.Cache().Stats(); cs.Entries != 0 || cs.Aggregates != 0 {
		t.Errorf("cache retains deleted fingerprint's entries: %+v", cs)
	}
	if s.Store().HasFingerprint(info.Fingerprint) {
		t.Error("store still reports the deleted fingerprint")
	}

	// The trace is gone; deleting again is 404.
	if resp, _ := getRaw(t, ts.URL+"/v1/traces/mine/report"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("report after delete: %d, want 404", resp.StatusCode)
	}
	if resp := del("mine"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("second delete: %d, want 404", resp.StatusCode)
	}

	// Re-ingesting the same content after the purge recomputes cleanly.
	ingestTrace(t, ts, "mine", tr)
	if resp, body := getRaw(t, ts.URL+"/v1/traces/mine/report"); resp.StatusCode != http.StatusOK {
		t.Errorf("report after re-ingest: %d %s", resp.StatusCode, clip(body))
	}
}

// TestPartialSurvivesShortTraceFallback: a trace too short for hourly
// binning stores without a partial, and its report fails with 422
// exactly as the streaming analysis would — the fallback must not turn
// the error into a 500 or a panic.
func TestPartialSurvivesShortTraceFallback(t *testing.T) {
	s, ts := newTestServer(t)
	tr := genTrace(t, "CC-e", 3, 30*time.Hour)
	short := tr.Window(tr.Meta.Start, 45*time.Minute)
	short.Meta.Name = "short"
	if _, err := s.Store().Put("short", short); err != nil {
		t.Fatal(err)
	}
	if st := s.Store().Stats(); st.Partials != 0 {
		t.Fatalf("short trace stored with a partial: %+v", st)
	}
	resp, body := getRaw(t, ts.URL+"/v1/traces/short/report")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("short-trace report: %d %s, want 422", resp.StatusCode, clip(body))
	}
}
