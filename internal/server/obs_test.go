package server

import (
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// settle calls read every 5 ms until it reports true or 5 s pass, and
// returns read's last answer. The middleware records a request after
// its handler returns, which can be after the client has read the whole
// response, so a test reading a request's record waits for it.
func settle(read func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if read() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// metricFamilies is every family /metrics declares, on a single node
// and on a cluster node alike: one instrument per fact.
var metricFamilies = []string{
	"go_goroutines",
	"swim_analysis_duration_seconds",
	"swim_build_info",
	"swim_cache_events_total",
	"swim_cache_hit_ratio",
	"swim_cluster_shard_fetch_failures_total",
	"swim_http_panics_total",
	"swim_http_request_bytes_total",
	"swim_http_request_duration_seconds",
	"swim_http_requests_total",
	"swim_http_response_bytes_total",
	"swim_http_slow_requests_total",
	"swim_layer_seconds",
	"swim_storage_trace_segments",
	"swim_store_jobs",
	"swim_store_traces",
	"swim_uptime_seconds",
}

// checkFamilies fails t unless a scrape declares exactly metricFamilies.
func checkFamilies(t testing.TB, exp *obs.Exposition) {
	t.Helper()
	var got []string
	for name := range exp.Types {
		got = append(got, name)
	}
	slices.Sort(got)
	if !slices.Equal(got, metricFamilies) {
		t.Errorf("/metrics declares %d families %v, want the %d %v", len(got), got, len(metricFamilies), metricFamilies)
	}
}

// scrapeMetrics fetches /metrics and parses it with the strict parser —
// unparseable output is a test failure, the exposition-format gate.
func scrapeMetrics(t testing.TB, base string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d %s", resp.StatusCode, clip(body))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type %q", ct)
	}
	exp, err := obs.ParsePrometheus(string(body))
	if err != nil {
		t.Fatalf("/metrics output does not parse: %v\n%s", err, clip(body))
	}
	return exp
}

// TestMetricsEndpoint drives real traffic through the server and
// asserts the scrape declares exactly the documented families and
// carries the required series with sane values.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	tr := genTrace(t, "CC-b", 1, 25*time.Hour)
	ingestTrace(t, ts, "obs-trace", tr)
	getJSON(t, ts.URL+"/v1/traces/obs-trace/report", nil)
	getJSON(t, ts.URL+"/v1/traces/obs-trace/report", nil) // cache hit

	var exp *obs.Exposition
	reports := func() bool {
		exp = scrapeMetrics(t, ts.URL)
		v, ok := exp.Value("swim_http_requests_total", "endpoint", "GET /v1/traces/{name}/report", "code", "200")
		return ok && v == 2
	}
	if !settle(reports) {
		t.Errorf("report request series never reached 2")
	}
	checkFamilies(t, exp)

	if v, ok := exp.Value("swim_http_requests_total", "endpoint", "POST /v1/traces/{name}", "code", "201"); !ok || v != 1 {
		t.Errorf("ingest request series %v, %v", v, ok)
	}
	if v, ok := exp.Value("swim_http_request_duration_seconds_count", "endpoint", "GET /v1/traces/{name}/report"); !ok || v != 2 {
		t.Errorf("report latency count %v, %v", v, ok)
	}
	if v, ok := exp.Value("swim_http_request_bytes_total", "endpoint", "POST /v1/traces/{name}"); !ok || v <= 0 {
		t.Errorf("ingest bytes series %v, %v", v, ok)
	}
	// The first report took the ingest-partial path; the repeat was a
	// byte-cache hit and records no analysis path.
	if v, ok := exp.Value("swim_analysis_duration_seconds_count", "path", "ingest-partial"); !ok || v != 1 {
		t.Errorf("analysis path series %v, %v (want ingest-partial=1)", v, ok)
	}
	// The miss's spans feed the layer histogram under the benchmark's
	// layer names; a stored partial needs no observe or scan.
	for _, layer := range []string{"ingest", "core.finalize", "core.marshal"} {
		if v, ok := exp.Value("swim_layer_seconds_count", "layer", layer); !ok || v != 1 {
			t.Errorf("swim_layer_seconds_count{layer=%q} %v, %v (want 1)", layer, v, ok)
		}
	}
	for _, layer := range []string{"core.observe", "storage.scan"} {
		if _, ok := exp.Value("swim_layer_seconds_count", "layer", layer); ok {
			t.Errorf("an ingest-partial report recorded a %s span", layer)
		}
	}
	if v, ok := exp.Value("swim_store_traces"); !ok || v != 1 {
		t.Errorf("swim_store_traces %v, %v", v, ok)
	}
	if v, ok := exp.Value("swim_storage_trace_segments", "trace", "obs-trace"); ok && v < 0 {
		t.Errorf("per-trace segments negative: %v", v)
	}
	if v, ok := exp.Value("swim_cache_events_total", "event", "hits"); !ok || v != 1 {
		t.Errorf("cache hits series %v, %v", v, ok)
	}
	if v, ok := exp.Value("swim_cache_hit_ratio", "tier", "results"); !ok || v <= 0 || v > 1 {
		t.Errorf("cache hit ratio %v, %v", v, ok)
	}
	if v, ok := exp.Value("swim_uptime_seconds"); !ok || v < 0 {
		t.Errorf("swim_uptime_seconds %v, %v", v, ok)
	}
	if v, ok := exp.Value("go_goroutines"); !ok || v < 1 {
		t.Errorf("go_goroutines %v, %v", v, ok)
	}
	if len(exp.Find("swim_build_info")) != 1 {
		t.Error("swim_build_info missing")
	}
	for _, name := range []string{"swim_http_request_duration_seconds", "swim_layer_seconds"} {
		if exp.Types[name] != "histogram" {
			t.Errorf("%s TYPE %q", name, exp.Types[name])
		}
	}
}

// TestDebugRequestsRing: /v1/debug/requests serves the recent requests
// newest-first with spans named by layer, and min_ms filters. A report
// from the stored partial finalizes and marshals with no observe span;
// a window of the resident jobs observes them first.
func TestDebugRequestsRing(t *testing.T) {
	_, ts := newTestServer(t)
	tr := genTrace(t, "CC-b", 1, 25*time.Hour)
	ingestTrace(t, ts, "ring-trace", tr)
	getJSON(t, ts.URL+"/v1/traces/ring-trace/report", nil)
	getJSON(t, ts.URL+"/v1/traces/ring-trace/report?window=6h", nil)

	var dbg struct {
		Count    int                 `json:"count"`
		Requests []obs.RequestRecord `json:"requests"`
	}
	records := make(map[string]*obs.RequestRecord) // by analysis path
	settle(func() bool {
		getJSON(t, ts.URL+"/v1/debug/requests", &dbg)
		for _, rec := range dbg.Requests {
			if rec.Endpoint == "GET /v1/traces/{name}/report" {
				records[rec.Analysis] = &rec
			}
		}
		return len(records) == 2
	})
	if dbg.Count < 3 || len(dbg.Requests) != dbg.Count {
		t.Fatalf("ring count %d (%d records)", dbg.Count, len(dbg.Requests))
	}
	for analysis, want := range map[string][]string{
		"ingest-partial": {"core.finalize", "core.marshal"},
		"window-scan":    {"core.observe", "core.finalize", "core.marshal"},
	} {
		report := records[analysis]
		if report == nil {
			t.Fatalf("no %s report record in ring: %+v", analysis, dbg.Requests)
		}
		if report.ID == "" || report.Status != http.StatusOK || report.MS < 0 {
			t.Errorf("%s report record %+v", analysis, report)
		}
		var got []string
		for _, sp := range report.Spans {
			got = append(got, sp.Name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s report spans %v, want %v", analysis, got, want)
		}
	}

	// min_ms high enough filters everything out.
	getJSON(t, ts.URL+"/v1/debug/requests?min_ms=3600000", &dbg)
	if dbg.Count != 0 {
		t.Errorf("min_ms filter left %d records", dbg.Count)
	}
	// limit caps the answer.
	getJSON(t, ts.URL+"/v1/debug/requests?limit=1", &dbg)
	if dbg.Count != 1 {
		t.Errorf("limit=1 returned %d records", dbg.Count)
	}
}

// TestStatsServerSections: /v1/stats carries the server identity,
// runtime snapshot, and per-endpoint/per-analysis summaries.
func TestStatsServerSections(t *testing.T) {
	_, ts := newTestServer(t)
	tr := genTrace(t, "CC-b", 1, 25*time.Hour)
	ingestTrace(t, ts, "stats-trace", tr)
	getJSON(t, ts.URL+"/v1/traces/stats-trace/report", nil)

	// The report's summaries are recorded after its handler returns, so
	// wait for them as for the ring.
	var st StatsResponse
	for deadline := time.Now().Add(5 * time.Second); st.Endpoints["GET /v1/traces/{name}/report"].Requests == 0 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		getJSON(t, ts.URL+"/v1/stats", &st)
	}
	if st.Server.GoVersion == "" || st.Server.Version == "" || st.Server.GOMAXPROCS < 1 {
		t.Errorf("server section %+v", st.Server)
	}
	if st.Server.StartedAt.IsZero() || st.Server.UptimeSeconds < 0 {
		t.Errorf("server uptime %+v", st.Server)
	}
	if st.Runtime.Goroutines < 1 || st.Runtime.HeapAllocBytes == 0 {
		t.Errorf("runtime section %+v", st.Runtime)
	}
	ep, ok := st.Endpoints["GET /v1/traces/{name}/report"]
	if !ok || ep.Requests != 1 || ep.ResponseBytes == 0 {
		t.Errorf("report endpoint summary %+v (ok=%v)", ep, ok)
	}
	if sum, ok := st.Analysis["ingest-partial"]; !ok || sum.Count != 1 {
		t.Errorf("analysis summary %+v (ok=%v)", st.Analysis, ok)
	}
	if len(st.Storage) != 1 || st.Storage[0].Name != "stats-trace" || st.Storage[0].Jobs != tr.Len() {
		t.Errorf("storage section %+v", st.Storage)
	}
}

// TestPprofGatedByConfig: the profile endpoints exist only when enabled.
func TestPprofGatedByConfig(t *testing.T) {
	_, off := newTestServer(t)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without EnablePprof: %d, want 404", resp.StatusCode)
	}

	_, on := newTestServerCfg(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index: %d %s", resp.StatusCode, clip(body))
	}
}
