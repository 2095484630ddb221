package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// evict drops name's hot copy, leaving the trace disk-resident.
func evict(t *testing.T, s *Server, name string) {
	t.Helper()
	st := s.Store()
	st.mu.Lock()
	st.dropResidencyLocked(st.entries[name])
	st.mu.Unlock()
	if v, err := st.View(name); err != nil || v.Trace != nil {
		t.Fatalf("%q still resident after eviction (err %v)", name, err)
	}
}

// fullReportBytes is core.Analyze's report of tr as an upload decodes
// it, encoded as the server encodes reports.
func fullReportBytes(t *testing.T, tr *trace.Trace, top int) []byte {
	t.Helper()
	var upload bytes.Buffer
	if err := trace.WriteJSONL(&upload, tr); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadJSONL(&upload)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(decoded, core.AnalyzeOptions{TopNames: top})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFullReportByteIdentity: full=1 answers exactly the bytes of
// core.Analyze over the stored jobs — for a resident trace, for an
// evicted one that the request reloads, and after a restart, where the
// whole-trace partial is the recovered snapshot. full=1&sketch=1 is the
// full report with the sketch=1 report's Figure 1.
func TestFullReportByteIdentity(t *testing.T) {
	tr := genTrace(t, "CC-b", 1, 26*time.Hour)
	want8, want3 := fullReportBytes(t, tr, 8), fullReportBytes(t, tr, 3)

	// report fetches a report that must be computed by this request,
	// not answered from the result cache.
	report := func(t *testing.T, ts, query string) []byte {
		t.Helper()
		resp, body := getRaw(t, ts+"/v1/traces/x/report?"+query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", query, resp.StatusCode, clip(body))
		}
		if c := resp.Header.Get("X-Cache"); c != "MISS" {
			t.Fatalf("%s: X-Cache = %q, want MISS", query, c)
		}
		if a := resp.Header.Get("X-Analysis"); query != "sketch=1" && a != "full" {
			t.Errorf("%s: X-Analysis = %q, want full", query, a)
		}
		return body
	}
	for _, c := range []string{"resident", "evicted", "restarted"} {
		// A server per case: the result cache keys on the fingerprint,
		// so a second case on one server would be answered from it.
		dir := t.TempDir()
		s, ts := diskServer(t, dir, Config{})
		ingestTrace(t, ts, "x", tr)
		if c == "restarted" {
			ts.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, ts = diskServer(t, dir, Config{})
			if v, err := s.Store().View("x"); err != nil || !v.Recovered || v.Trace != nil {
				t.Fatalf("after restart: recovered=%v resident=%v err=%v, want a recovered disk-resident trace",
					v.Recovered, v.Trace != nil, err)
			}
		}
		// A full report reloads an evicted trace into the hot tier, so
		// every row evicts it again.
		prepare := func(t *testing.T) {
			if c != "resident" {
				evict(t, s, "x")
			} else if v, err := s.Store().View("x"); err != nil || v.Trace == nil {
				t.Fatalf("the trace is not resident (err %v)", err)
			}
		}
		t.Run(c+"/full=1", func(t *testing.T) {
			prepare(t)
			if got := report(t, ts.URL, "full=1"); !bytes.Equal(got, want8) {
				t.Errorf("full=1 differs from core.Analyze (first diff at byte %d of %d)", firstDiff(got, want8), len(want8))
			}
		})
		t.Run(c+"/full=1&top=3", func(t *testing.T) {
			prepare(t)
			if got := report(t, ts.URL, "full=1&top=3"); !bytes.Equal(got, want3) {
				t.Errorf("full=1&top=3 differs from core.Analyze (first diff at byte %d of %d)", firstDiff(got, want3), len(want3))
			}
		})
		t.Run(c+"/full=1&sketch=1", func(t *testing.T) {
			prepare(t)
			var full, sketch, sketchFull map[string]json.RawMessage
			if err := json.Unmarshal(want8, &full); err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				query string
				out   *map[string]json.RawMessage
			}{{"sketch=1", &sketch}, {"full=1&sketch=1", &sketchFull}} {
				if err := json.Unmarshal(report(t, ts.URL, r.query), r.out); err != nil {
					t.Fatal(err)
				}
			}
			if len(sketchFull) != len(full) {
				t.Errorf("full=1&sketch=1 has %d sections, full=1 has %d", len(sketchFull), len(full))
			}
			for k, v := range sketchFull {
				ref := full
				if k == "data_sizes" {
					ref = sketch
				}
				if !bytes.Equal(v, ref[k]) {
					t.Errorf("full=1&sketch=1 section %q differs", k)
				}
			}
		})
	}
}

// firstDiff is the index of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
