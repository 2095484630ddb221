package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestUploadShapes is the write path's shape table: every upload header
// (complete, no start/length, no name) × job order (sorted, reversed) ×
// tier (memory, disk resident, disk spilled at a third of the jobs, disk
// budget one job short) commits exactly what a memory-store Put of the
// same trace commits — identity, header and report bytes — or, out of
// order past the budget, fails with errUnsortedSpill. A disk row's
// stored generation reads back to the same fingerprint. Spills commit
// disk-resident and count once; a spill under a header complete only at
// EOF re-folds the written jobs under the derived one.
func TestUploadShapes(t *testing.T) {
	base := genTrace(t, "CC-e", 4, 26*time.Hour)
	n := base.Len()
	headers := []struct {
		name string
		edit func(*trace.Meta)
	}{
		{"complete", func(*trace.Meta) {}},
		{"no-start-length", func(m *trace.Meta) { m.Start, m.Length = time.Time{}, 0 }},
		{"no-name", func(m *trace.Meta) { m.Name = "" }},
	}
	tiers := []struct {
		name   string
		disk   bool
		budget int // MaxTotalJobs; 0 is the default, which fits
	}{
		{"memory", false, 0},
		{"disk-resident", true, 0},
		{"disk-spilled", true, n / 3},
		{"disk-one-short", true, n - 1},
	}
	for _, h := range headers {
		for _, reversed := range []bool{false, true} {
			// shape returns a fresh copy of the upload: Put normalizes its
			// argument in place.
			shape := func() *trace.Trace {
				tr := trace.New(base.Meta)
				h.edit(&tr.Meta)
				tr.Jobs = slices.Clone(base.Jobs)
				if reversed {
					slices.Reverse(tr.Jobs)
				}
				return tr
			}
			ref, refTS := newTestServer(t)
			want, err := ref.Store().Put("x", shape())
			if err != nil {
				t.Fatal(err)
			}
			refView, err := ref.Store().View("x")
			if err != nil {
				t.Fatal(err)
			}
			_, wantReport := getRaw(t, refTS.URL+"/v1/traces/x/report")
			order := map[bool]string{false: "sorted", true: "reversed"}[reversed]

			for _, tier := range tiers {
				t.Run(fmt.Sprintf("%s/%s/%s", h.name, order, tier.name), func(t *testing.T) {
					cfg := Config{MaxTotalJobs: tier.budget}
					if tier.disk {
						cfg.DataDir, cfg.SegmentJobs = t.TempDir(), 100
					}
					s, ts := newTestServerCfg(t, cfg)
					info, err := s.Store().Ingest("x", trace.NewSliceSource(shape()))
					spilled := tier.budget > 0
					if reversed && spilled {
						if !errors.Is(err, errUnsortedSpill) {
							t.Fatalf("reversed upload past the budget: err %v, want errUnsortedSpill", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if info != want {
						t.Errorf("info %+v, want %+v", info, want)
					}
					v, err := s.Store().View("x")
					if err != nil {
						t.Fatal(err)
					}
					if spilled != (v.Trace == nil) {
						t.Fatalf("spilled=%v but resident copy present=%v", spilled, v.Trace != nil)
					}
					var meta trace.Meta
					if spilled {
						meta = v.Stored.Meta()
					} else {
						meta = v.Trace.Meta
					}
					if wm := refView.Trace.Meta; meta.Name != wm.Name || meta.Machines != wm.Machines ||
						!meta.Start.Equal(wm.Start) || meta.Length != wm.Length {
						t.Errorf("stored header %+v, want %+v", meta, wm)
					}
					if tier.disk {
						// The durable generation reads back to the same identity.
						back, err := v.Stored.Collect()
						if err != nil {
							t.Fatal(err)
						}
						if fp, err := back.Fingerprint(); err != nil || fp != want.Fingerprint {
							t.Errorf("stored generation reads back as %s (%v), want %s", fp, err, want.Fingerprint)
						}
					}
					if st := s.Store().Stats(); st.Spills != map[bool]uint64{false: 0, true: 1}[spilled] || st.Rejected != 0 {
						t.Errorf("stats %+v (spilled=%v)", st, spilled)
					}
					if _, got := getRaw(t, ts.URL+"/v1/traces/x/report"); !bytes.Equal(got, wantReport) {
						t.Error("report bytes differ from the memory-store Put's")
					}
				})
			}
		}
	}
}

// TestFailedUploadsCountRejected: every upload that does not commit
// counts once in /v1/stats' rejected — bad jobs, empty streams and
// unsortable spills, not only admission failures — as every failed
// append counts in append_rejected.
func TestFailedUploadsCountRejected(t *testing.T) {
	tr := genTrace(t, "CC-e", 3, 26*time.Hour)
	bad := *tr.Jobs[0]
	bad.Duration = -time.Second
	invalid := trace.New(tr.Meta)
	invalid.Add(&bad)
	rev := trace.New(tr.Meta)
	rev.Jobs = slices.Clone(tr.Jobs)
	slices.Reverse(rev.Jobs)
	oneJob := func(submit time.Time) *trace.Trace {
		j := *tr.Jobs[0]
		j.SubmitTime = submit
		out := trace.New(tr.Meta)
		out.Add(&j)
		return out
	}
	farHeader := shiftYears(tr, 380)
	farHeader.Jobs = tr.Jobs

	s := mustNew(t, Config{MaxTotalJobs: tr.Len() / 3, DataDir: t.TempDir(), SegmentJobs: 100})
	for i, c := range []struct {
		name string
		put  bool
		tr   *trace.Trace
		want error
	}{
		{"negative duration", false, invalid, nil},
		{"empty", false, trace.New(tr.Meta), nil},
		{"unsortable spill", false, rev, errUnsortedSpill},
		{"empty put", true, trace.New(tr.Meta), nil},
		{"far-future job", false, oneJob(time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)), nil},
		{"pre-1678 job", false, oneJob(time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC)), nil},
		{"far-future header start", false, farHeader, errBadRequest},
		{"far-future put", true, shiftYears(tr, 380), errBadRequest},
	} {
		var err error
		if c.put {
			_, err = s.Store().Put("x", c.tr)
		} else {
			_, err = s.Store().Ingest("x", trace.NewSliceSource(c.tr))
		}
		if err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Fatalf("%s: err %v, want a failure (%v)", c.name, err, c.want)
		}
		if got := s.Store().Stats().Rejected; got != uint64(i+1) {
			t.Errorf("%s: rejected = %d, want %d", c.name, got, i+1)
		}
	}
}

// shiftYears returns a copy of tr with its header start and every
// submit time moved by years.
func shiftYears(tr *trace.Trace, years int) *trace.Trace {
	out := trace.New(tr.Meta)
	out.Meta.Start = tr.Meta.Start.AddDate(years, 0, 0)
	for _, j := range tr.Jobs {
		c := *j
		c.SubmitTime = j.SubmitTime.AddDate(years, 0, 0)
		out.Add(&c)
	}
	return out
}

// TestOutOfRangeTraceRejected: a trace dated past 2262 (or before 1678)
// cannot be stored, since its Unix-nanosecond timestamps would wrap in
// the manifest, the snapshot and the series origin and change its
// report across a restart. Upload and append answer 400 naming the
// range, and nothing is stored.
func TestOutOfRangeTraceRejected(t *testing.T) {
	tr := genTrace(t, "FB-2009", 1, 24*time.Hour)
	farHeader := shiftYears(tr, 380)
	farHeader.Jobs = tr.Jobs
	_, ts := newTestServerCfg(t, Config{DataDir: t.TempDir()})
	for _, c := range []struct {
		name, route string
		tr          *trace.Trace
	}{
		{"upload past 2262", "/v1/traces/far", shiftYears(tr, 380)},
		{"upload before 1678", "/v1/traces/far", shiftYears(tr, -400)},
		{"upload header past 2262", "/v1/traces/far", farHeader},
		{"append past 2262", "/v1/traces/far/append", shiftYears(tr, 380)},
		{"append header past 2262", "/v1/traces/far/append", farHeader},
	} {
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, c.tr); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+c.route, "application/jsonl", &buf)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("2262-04-11")) {
			t.Errorf("%s: %d %s, want a 400 naming the range", c.name, resp.StatusCode, clip(body))
		}
	}
	resp, err := http.Get(ts.URL + "/v1/traces/far")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("a rejected trace is stored: GET answers %d", resp.StatusCode)
	}
}

// TestWriteRoutesOverLimitBody: a body over MaxUploadBytes is a 507 on
// every write route — upload and append, public and shard — not a 400
// on the shard routes.
func TestWriteRoutesOverLimitBody(t *testing.T) {
	nodes := newTestCluster(t, 1, func(_ int, cfg *Config) { cfg.MaxUploadBytes = 4096 })
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, genTrace(t, "CC-b", 1, 26*time.Hour)); err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{
		"/v1/traces/big",
		"/v1/traces/big/append",
		"/internal/v1/shards/big/0",
		"/internal/v1/shards/big/0/append",
	} {
		resp, err := http.Post(nodes[0].ts.URL+route, "application/jsonl", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInsufficientStorage {
			t.Errorf("POST %s with an over-limit body: %d %s, want 507", route, resp.StatusCode, clip(body))
		}
	}
}
