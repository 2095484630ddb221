package core_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/profile"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The frozen-partial contract, tested once over every producer of a
// partial the serving layer shares: whatever built it, a partial must
// report the bytes of the unfrozen sequential build, Freeze must be
// idempotent, and once frozen its Figure 1 snapshot section must not
// depend on the order the jobs were observed in.

func freezeTrace(t testing.TB, workload string, seed int64, dur time.Duration) *trace.Trace {
	t.Helper()
	p, err := profile.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate(gen.Config{Profile: p, Seed: seed, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func build(t testing.TB, tr *trace.Trace) *core.Partial {
	t.Helper()
	p, err := core.BuildPartial(trace.NewSliceSource(tr), false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func frozen(t testing.TB, tr *trace.Trace) *core.Partial {
	t.Helper()
	p := build(t, tr)
	p.Freeze()
	return p
}

func report(t testing.TB, p *core.Partial) []byte {
	t.Helper()
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

func snapshot(t testing.TB, p *core.Partial) []byte {
	t.Helper()
	b, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// figure1 cuts the Figure 1 section (the data-size builder) out of a
// version-1 snapshot: it follows the header and summary fields.
func figure1(t testing.TB, snap []byte) []byte {
	t.Helper()
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
	_ = r.String() // workload
	r.Bool()       // sketch
	r.Uvarint()    // jobs
	for col := 0; col < 3; col++ {
		r.Float64s(make([]float64, r.Count(8)))
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return snap[start : len(snap)-r.Remaining()]
}

// shuffled returns tr's jobs in a random order under the same metadata.
func shuffled(tr *trace.Trace, seed int64) *trace.Trace {
	out := trace.New(tr.Meta)
	out.Jobs = append([]*trace.Job(nil), tr.Jobs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out.Jobs), func(i, j int) {
		out.Jobs[i], out.Jobs[j] = out.Jobs[j], out.Jobs[i]
	})
	return out
}

func storeTrace(t testing.TB, tr *trace.Trace) *storage.Trace {
	t.Helper()
	s, _, err := storage.Open(t.TempDir(), storage.Options{SegmentJobs: 700})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	fp, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Create("t", tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, j := range tr.Jobs {
		if err := w.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := w.Seal(fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := w.Commit(sealed)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFrozenPartialProducers(t *testing.T) {
	tr := freezeTrace(t, "FB-2009", 4, 30*time.Hour)
	from, to := tr.Meta.Start.Add(5*time.Hour), tr.Meta.Start.Add(17*time.Hour)
	win := tr.Window(from, to.Sub(from))
	stored := storeTrace(t, tr)

	type producer struct {
		name string
		ref  *trace.Trace // the jobs and metadata the partial covers
		make func(t *testing.T) *core.Partial
	}
	traceBuild := func(k int) func(t *testing.T) *core.Partial {
		return func(t *testing.T) *core.Partial {
			p, err := core.BuildTracePartial(tr, k, false)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	scan := func(workers int, window bool) func(t *testing.T) *core.Partial {
		return func(t *testing.T) *core.Partial {
			opts := storage.ParallelScanOptions{Workers: workers}
			if window {
				opts.Window, opts.From, opts.To, opts.Meta = true, from, to, win.Meta
			}
			p, _, err := stored.ParallelScanPartial(opts)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	// halves splits the trace in two frozen-or-not partials.
	halves := func(t *testing.T, freezeB bool) (a, b *core.Partial) {
		mid := tr.Len() / 2
		a = frozen(t, &trace.Trace{Meta: tr.Meta, Jobs: tr.Jobs[:mid]})
		b = build(t, &trace.Trace{Meta: tr.Meta, Jobs: tr.Jobs[mid:]})
		if freezeB {
			b.Freeze()
		}
		return a, b
	}
	// mergeUnmodified merges args into recv and fails if any argument's
	// snapshot changed.
	mergeUnmodified := func(t *testing.T, recv *core.Partial, args ...*core.Partial) *core.Partial {
		before := make([][]byte, len(args))
		for i, a := range args {
			before[i] = snapshot(t, a)
		}
		if err := recv.Merge(args...); err != nil {
			t.Fatal(err)
		}
		for i, a := range args {
			if !bytes.Equal(snapshot(t, a), before[i]) {
				t.Fatalf("Merge modified argument %d", i)
			}
		}
		return recv
	}

	producers := []producer{
		{"BuildTracePartial/k=1", tr, traceBuild(1)},
		{"BuildTracePartial/k=3", tr, traceBuild(3)},
		{"ParallelScanPartial/workers=1", tr, scan(1, false)},
		{"ParallelScanPartial/workers=4", tr, scan(4, false)},
		{"ParallelScanPartial/window/workers=1", win, scan(1, true)},
		{"ParallelScanPartial/window/workers=4", win, scan(4, true)},
		{"Clone/append", tr, func(t *testing.T) *core.Partial {
			// The live-append shape: observe a batch, refreeze, publish
			// a clone; the private accumulator keeps going.
			live, err := core.NewPartial(tr.Meta, false)
			if err != nil {
				t.Fatal(err)
			}
			var published *core.Partial
			for i := 0; i < tr.Len(); i += 611 {
				for _, j := range tr.Jobs[i:min(i+611, tr.Len())] {
					live.Observe(j)
				}
				live.Freeze()
				if published, err = live.Clone(); err != nil {
					t.Fatal(err)
				}
			}
			return published
		}},
		{"Clone/append-small", tr, func(t *testing.T) *core.Partial {
			// Small batches, as a live feed sends them: every Freeze seals
			// a 7-job run and hundreds of runs merge. A clone published
			// mid-way must keep its report bytes while the original goes
			// on observing, refreezing and merging runs.
			live, err := core.NewPartial(tr.Meta, false)
			if err != nil {
				t.Fatal(err)
			}
			var published, mid *core.Partial
			var midReport []byte
			for i := 0; i < tr.Len(); i += 7 {
				for _, j := range tr.Jobs[i:min(i+7, tr.Len())] {
					live.Observe(j)
				}
				live.Freeze()
				if published, err = live.Clone(); err != nil {
					t.Fatal(err)
				}
				if mid == nil && i >= tr.Len()/2 {
					mid, midReport = published, report(t, published)
				}
			}
			if !bytes.Equal(report(t, mid), midReport) {
				t.Fatal("a published clone changed as the original went on appending")
			}
			return published
		}},
		{"Merge/frozen+frozen", tr, func(t *testing.T) *core.Partial {
			a, b := halves(t, true)
			return mergeUnmodified(t, a, b)
		}},
		{"Merge/fresh+frozen*3", tr, func(t *testing.T) *core.Partial {
			// The cluster gather: shared frozen shard partials merged into
			// a fresh receiver.
			third := tr.Len() / 3
			var parts []*core.Partial
			for _, jobs := range [][]*trace.Job{tr.Jobs[:third], tr.Jobs[third : 2*third], tr.Jobs[2*third:]} {
				parts = append(parts, frozen(t, &trace.Trace{Meta: tr.Meta, Jobs: jobs}))
			}
			recv, err := core.NewPartial(tr.Meta, false)
			if err != nil {
				t.Fatal(err)
			}
			return mergeUnmodified(t, recv, parts...)
		}},
		{"Merge/frozen+unfrozen", tr, func(t *testing.T) *core.Partial {
			a, b := halves(t, false)
			return mergeUnmodified(t, a, b)
		}},
		{"UnmarshalPartial/v1-unsorted", tr, func(t *testing.T) *core.Partial {
			// What every data dir written before partials were frozen at
			// publish holds: a snapshot with unsorted columns.
			p, err := core.UnmarshalPartial(snapshot(t, build(t, tr)))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	}

	type expect struct{ report, figure1 []byte }
	refs := map[*trace.Trace]expect{}
	for _, ref := range []*trace.Trace{tr, win} {
		refs[ref] = expect{
			report:  report(t, build(t, ref)),
			figure1: figure1(t, snapshot(t, frozen(t, shuffled(ref, 7)))),
		}
	}
	for _, pr := range producers {
		t.Run(pr.name, func(t *testing.T) {
			want := refs[pr.ref]
			p := pr.make(t)
			if !bytes.Equal(report(t, p), want.report) {
				t.Fatal("report diverges from the unfrozen sequential build")
			}
			p.Freeze()
			snap := snapshot(t, p)
			p.Freeze()
			if !bytes.Equal(snapshot(t, p), snap) {
				t.Fatal("Freeze is not idempotent")
			}
			if !bytes.Equal(report(t, p), want.report) {
				t.Fatal("frozen report diverges from the unfrozen sequential build")
			}
			if !bytes.Equal(figure1(t, snap), want.figure1) {
				t.Fatal("frozen Figure 1 section depends on observation order")
			}
			// A frozen snapshot decodes frozen: refreezing the decoded
			// partial changes nothing.
			dec, err := core.UnmarshalPartial(snap)
			if err != nil {
				t.Fatal(err)
			}
			dec.Freeze()
			if !bytes.Equal(snapshot(t, dec), snap) {
				t.Fatal("decoded frozen snapshot was not frozen")
			}
		})
	}
}

// TestFrozenPartialConcurrentReaders: readers of one shared frozen
// partial (Report, MarshalBinary, Clone) race a writer that observes
// into, refreezes and clones its own private partial in small batches —
// the append session beside report traffic. The shared partial is
// itself a clone the writer published mid-way, so the readers walk
// runs the writer keeps merging past. Run under -race.
func TestFrozenPartialConcurrentReaders(t *testing.T) {
	tr := freezeTrace(t, "CC-b", 2, 26*time.Hour)
	live, err := core.NewPartial(tr.Meta, false)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 13
	half := tr.Len() / 2 / batch * batch
	for i := 0; i < half; i += batch {
		for _, j := range tr.Jobs[i : i+batch] {
			live.Observe(j)
		}
		live.Freeze()
	}
	shared, err := live.Clone()
	if err != nil {
		t.Fatal(err)
	}
	prefix := &trace.Trace{Meta: tr.Meta, Jobs: tr.Jobs[:half]}
	wantReport, wantSnap := report(t, build(t, prefix)), snapshot(t, frozen(t, prefix))
	if !bytes.Equal(report(t, shared), wantReport) || !bytes.Equal(snapshot(t, shared), wantSnap) {
		t.Fatal("clone of a partial frozen batch by batch diverges from the one-shot build")
	}
	fullReport := report(t, build(t, tr))

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if !bytes.Equal(report(t, shared), wantReport) {
					t.Error("concurrent Report diverged")
				}
				if !bytes.Equal(snapshot(t, shared), wantSnap) {
					t.Error("concurrent MarshalBinary diverged")
				}
				c, err := shared.Clone()
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(report(t, c), wantReport) {
					t.Error("concurrent Clone diverged")
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := half; i < tr.Len(); i += batch {
			for _, j := range tr.Jobs[i:min(i+batch, tr.Len())] {
				live.Observe(j)
			}
			live.Freeze()
			if _, err := live.Clone(); err != nil {
				t.Error(err)
				return
			}
		}
		if !bytes.Equal(report(t, live), fullReport) {
			t.Error("private refrozen partial diverged")
		}
	}()
	wg.Wait()
}

// TestFrozenReportAllocsIndependentOfJobs: finalizing a frozen exact
// partial wraps its sorted columns instead of copying them, so a report
// over ten times the jobs (same hours, same names) allocates no more.
func TestFrozenReportAllocsIndependentOfJobs(t *testing.T) {
	tr := freezeTrace(t, "FB-2009", 1, 24*time.Hour)
	bytesPerReport := func(copies int) uint64 {
		p, err := core.NewPartial(tr.Meta, false)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < copies; c++ {
			for _, j := range tr.Jobs {
				p.Observe(j)
			}
		}
		p.Freeze()
		report(t, p) // warm
		best := ^uint64(0)
		for round := 0; round < 5; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := p.Report(8); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := bytesPerReport(1), bytesPerReport(10)
	if large > small {
		t.Fatalf("Report allocates %d B at %d jobs but %d B at %d jobs; a frozen report must not copy its columns",
			small, tr.Len(), large, 10*tr.Len())
	}
}
