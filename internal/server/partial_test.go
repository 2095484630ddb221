package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
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

// TestReportVariantsScanPerRequest: the result cache keeps report
// bytes only. A report the frozen partial cannot serve (sketch mode, a
// window) builds its partial for that request alone, so variants that
// differ only in finalization (top=N) each answer MISS from a scan of
// their own, with the bytes of the in-process build of the same jobs.
// The exact whole-trace report still finalizes the frozen partial.
func TestReportVariantsScanPerRequest(t *testing.T) {
	s, ts := newTestServer(t)
	tr := genTrace(t, "CC-e", 3, 30*time.Hour)
	ingestTrace(t, ts, "mine", tr)
	v, err := s.Store().View("mine")
	if err != nil {
		t.Fatal(err)
	}
	stored := v.Trace
	end := stored.Meta.Start.Add(stored.Meta.Length)
	window := stored.Window(end.Add(-6*time.Hour), 6*time.Hour)

	for _, c := range []struct {
		query, analysis string
		jobs            *trace.Trace
		sketch          bool
		top             int
	}{
		{"?sketch=1", "scan", stored, true, 8},
		{"?sketch=1&top=3", "scan", stored, true, 3},
		{"?window=6h", "window-scan", window, false, 8},
		{"?window=6h&top=3", "window-scan", window, false, 3},
	} {
		p, err := core.BuildTracePartial(c.jobs, 1, c.sketch)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Report(c.top)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rep.JSON())
		if err != nil {
			t.Fatal(err)
		}
		resp, body := getRaw(t, ts.URL+"/v1/traces/mine/report"+c.query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report%s: %d %s", c.query, resp.StatusCode, clip(body))
		}
		if x, a := resp.Header.Get("X-Cache"), resp.Header.Get("X-Analysis"); x != "MISS" || a != c.analysis {
			t.Errorf("report%s: X-Cache %q X-Analysis %q, want MISS %s", c.query, x, a, c.analysis)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("report%s differs from the in-process build of its jobs", c.query)
		}
	}

	// The exact whole-trace report finalizes the frozen partial.
	resp, _ := getRaw(t, ts.URL+"/v1/traces/mine/report")
	if got := resp.Header.Get("X-Analysis"); got != "ingest-partial" {
		t.Errorf("exact report X-Analysis = %q, want ingest-partial", got)
	}
	if cs := s.Cache().Stats(); cs.Entries != 5 || cs.Misses != 5 || cs.Hits != 0 {
		t.Errorf("after five distinct reports: %+v", cs)
	}
}

// TestDeleteInvalidatesCaches is the DELETE handler contract: removing
// the last trace with a fingerprint drops its memoized report bytes
// from the result cache; a second name sharing the content keeps them
// alive.
func TestDeleteInvalidatesCaches(t *testing.T) {
	s, ts := newTestServer(t)
	tr := genTrace(t, "CC-e", 3, 30*time.Hour)
	info := ingestTrace(t, ts, "mine", tr)
	ingestTrace(t, ts, "twin", tr) // same content, same fingerprint

	// Warm the cache under the shared fingerprint: a default report
	// and a sketch report.
	getRaw(t, ts.URL+"/v1/traces/mine/report")
	getRaw(t, ts.URL+"/v1/traces/mine/report?sketch=1")
	cs := s.Cache().Stats()
	if cs.Entries != 2 {
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
	if cs := s.Cache().Stats(); cs.Entries != 2 {
		t.Errorf("cache dropped entries while a fingerprint holder remains: %+v", cs)
	}

	// Deleting the last holder purges its entries.
	if resp := del("mine"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete mine: %d", resp.StatusCode)
	}
	if cs := s.Cache().Stats(); cs.Entries != 0 {
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
