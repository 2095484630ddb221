package core_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/binenc"
	"repro/internal/colseg"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/trace"
)

// TestObserveColumnsMatchesObserve holds the scan's block observe to
// the per-job reference: for every block of a colseg encoding of each
// generator workload, and of a block of edge rows, with and without a
// window, exact and sketched, Partial.ObserveColumns over the block's
// DecodeColumns gives the report bytes and the Figure 1 section that
// Partial.Observe gives over the jobs Decode yields from the same block
// and trace.Trace.Window's test keeps.
func TestObserveColumnsMatchesObserve(t *testing.T) {
	var segs []columnSegment
	for _, w := range profile.Names() {
		tr := freezeTrace(t, w, 3, 30*time.Hour)
		segs = append(segs, columnSegment{w, tr.Meta, tr.Jobs, tr.Meta.Start.Add(5 * time.Hour), tr.Meta.Start.Add(11 * time.Hour)})
	}
	segs = append(segs, edgeSegment())

	for _, sg := range segs {
		var buf bytes.Buffer
		w := colseg.NewWriter(&buf)
		for _, j := range sg.jobs {
			if err := w.Write(j); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		fs := colseg.NewFrameScanner(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		jobDec, colDec := colseg.NewBlockDecoder(), colseg.NewBlockDecoder()
		for blk := 0; ; blk++ {
			frame, err := fs.Next(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := jobDec.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			for _, window := range []bool{false, true} {
				meta := sg.meta
				if window {
					meta.Start, meta.Length = sg.from, sg.to.Sub(sg.from)
				}
				cols, err := colDec.DecodeColumns(frame, window, sg.from, sg.to)
				if err != nil {
					t.Fatal(err)
				}
				for _, sketch := range []bool{false, true} {
					ref, err := core.NewPartial(meta, sketch)
					if err != nil {
						t.Fatal(err)
					}
					kept := 0
					for i := range jobs {
						if j := &jobs[i]; !window || !j.SubmitTime.Before(sg.from) && j.SubmitTime.Before(sg.to) {
							ref.Observe(j)
							kept++
						}
					}
					got, err := core.NewPartial(meta, sketch)
					if err != nil {
						t.Fatal(err)
					}
					got.ObserveColumns(cols)
					where := func() string {
						return fmt.Sprintf("%s block %d window=%v sketch=%v", sg.name, blk, window, sketch)
					}
					if got.Jobs() != kept {
						t.Fatalf("%s: %d rows observed, the window keeps %d jobs", where(), got.Jobs(), kept)
					}
					if kept == 0 {
						continue
					}
					if g, w := appendReport(t, got), appendReport(t, ref); !bytes.Equal(g, w) {
						t.Fatalf("%s: report bytes differ\n got %s\nwant %s", where(), g, w)
					}
					if g, w := dataSizeSection(t, got), dataSizeSection(t, ref); !bytes.Equal(g, w) {
						t.Fatalf("%s: Figure 1 sections differ", where())
					}
				}
			}
		}
		jobDec.Close()
		colDec.Close()
	}
}

// columnSegment is a run of jobs to encode as a segment, and the window
// to decode it under.
type columnSegment struct {
	name     string
	meta     trace.Meta
	jobs     []*trace.Job
	from, to time.Time
}

// edgeSegment is one block of rows at the edges the column path must
// bin exactly as the per-job path: submits on the window's bounds and
// before the series start, zero durations and task times, executions
// past the horizon, unnamed, uppercase and non-ASCII names, and times
// in years 0 and 9999, which int64 nanoseconds cannot hold.
func edgeSegment() columnSegment {
	start := time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC)
	meta := trace.Meta{Name: "edges", Machines: 10, Start: start, Length: 48 * time.Hour}
	from, to := start.Add(3*time.Hour+250*time.Millisecond), start.Add(9*time.Hour+999_999_999)
	at := func(t time.Time, name string, dur time.Duration) *trace.Job {
		return &trace.Job{Name: name, SubmitTime: t, Duration: dur, InputBytes: 1 << 20, ShuffleBytes: 3,
			OutputBytes: 77, MapTime: 0.1, ReduceTime: 0.2, MapTasks: 1}
	}
	jobs := []*trace.Job{
		at(time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), "ancient", time.Hour),
		at(start.Add(-2*time.Hour), "early", 3*time.Hour),
		at(start.Add(-30*time.Minute), "early", time.Hour),
		at(start, "", 0),
		at(from.Add(-time.Nanosecond), "ETL_Daily", 10*time.Minute),
		at(from, "ETL_daily", 10*time.Minute),
		at(from, "Über-job", 90*time.Minute),
		at(start.Add(5*time.Hour), "日本 report", 26*time.Hour),
		at(start.Add(6*time.Hour), "42-ingest", 0),
		at(to.Add(-time.Nanosecond), "ad_hoc", time.Second),
		at(to, "ad_hoc", time.Second),
		at(start.Add(47*time.Hour+30*time.Minute), "late", 20*time.Hour),
		at(start.Add(60*time.Hour), "past", time.Hour),
		at(time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC), "future", time.Hour),
	}
	jobs[8].MapTime, jobs[8].ReduceTime = 0, 0
	jobs[3].MapTime, jobs[3].ReduceTime = 0, 0
	jobs[7].MapTime = 12345.678
	for i, j := range jobs {
		j.ID = int64(i + 1)
	}
	return columnSegment{"edges", meta, jobs, from, to}
}

// appendReport is the partial's report bytes through the server's
// encoder.
func appendReport(t testing.TB, p *core.Partial) []byte {
	t.Helper()
	rep, err := p.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// dataSizeSection cuts the Figure 1 section out of the partial's
// snapshot, in either mode.
func dataSizeSection(t testing.TB, p *core.Partial) []byte {
	t.Helper()
	snap := snapshot(t, p)
	r := binenc.NewReader(snap[len("swim-partial\n"):])
	r.Uvarint()    // version
	_ = r.String() // trace name
	r.Uvarint()    // machines
	r.Varint()     // start
	r.Varint()     // length
	r.Bool()       // sketch
	r.Uvarint()    // jobs
	r.Uvarint()    // summary jobs
	r.Varint()     // summary bytes moved
	start := len(snap) - r.Remaining()
	if _, err := analysis.ReadDataSizeBuilder(r); err != nil || r.Err() != nil {
		t.Fatal(err, r.Err())
	}
	return snap[start : len(snap)-r.Remaining()]
}
