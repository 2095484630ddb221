package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// readGen is one committed generation of the read-path table: the
// handle, the jobs it committed (the reference), and the store that
// wrote it.
type readGen struct {
	name string
	s    *Store
	st   *Trace
	want *trace.Trace
}

// zeroMeta is the zero-segment generation's metadata.
var zeroMeta = trace.Meta{Name: "empty", Machines: 3, Start: time.Unix(1_000_000_000, 0).UTC(), Length: time.Hour}

// packedGen is a one-shot write across several multi-block segments.
func packedGen(t *testing.T, tr *trace.Trace) readGen {
	s, _ := openStore(t, t.TempDir(), 5000)
	st := writeTrace(t, s, "packed", tr)
	if st.Segments() < 3 || st.Blocks() <= st.Segments() {
		t.Fatalf("packed generation: %d segments, %d blocks; want several multi-block segments", st.Segments(), st.Blocks())
	}
	return readGen{name: "packed", s: s, st: st, want: tr}
}

// fragmentedGen is 32 one-batch append sessions over the first 8/9 of
// the jobs, then one session of small batches: its first seal
// checkpoints and the later ones do not, so the committed checkpoint
// lags and LoadPartial replays past it, from inside a segment.
func fragmentedGen(t *testing.T, tr *trace.Trace) readGen {
	s, _ := openStore(t, t.TempDir(), 0)
	cut := tr.Len() * 8 / 9
	sessions := appendBatches(&trace.Trace{Meta: tr.Meta, Jobs: tr.Jobs[:cut]}, 32)
	sessions = append(sessions, tr.Jobs[cut:])
	ls := openLive(t, s, "frag", tr.Meta)
	var st *Trace
	for i, jobs := range sessions {
		if i > 0 {
			ls.a.Close()
			a, _, err := s.OpenAppend("frag", tr.Meta)
			if err != nil {
				t.Fatal(err)
			}
			ls.a = a
		}
		per := len(jobs)
		if i == len(sessions)-1 {
			per = 40
		}
		for _, batch := range smallBatches(jobs, per) {
			st = ls.commit(t, batch)
		}
	}
	ls.a.Close()
	if st.Segments() != len(sessions) {
		t.Fatalf("fragmented generation has %d segments, want %d", st.Segments(), len(sessions))
	}
	if covered := checkpointJobs(t, st); covered >= st.Jobs() {
		t.Fatalf("checkpoint covers %d of %d jobs; the row needs one that lags", covered, st.Jobs())
	}
	return readGen{name: "fragmented", s: s, st: st, want: tr}
}

// openAppenderGen is a live appender, still open, that committed four
// batches and then sealed a fifth without committing it: the open
// segment's file holds durable bytes past its committed size.
func openAppenderGen(t *testing.T, tr *trace.Trace) readGen {
	s, _ := openStore(t, t.TempDir(), 0)
	ls := openLive(t, s, "live", tr.Meta)
	t.Cleanup(func() { ls.a.Close() })
	batches := smallBatches(tr.Jobs, 500)
	var st *Trace
	for _, batch := range batches[:4] {
		st = ls.commit(t, batch)
	}
	ls.seal(t, batches[4])
	last := st.man.Segments[len(st.man.Segments)-1]
	if fi, err := os.Stat(filepath.Join(st.dir, last.File)); err != nil || fi.Size() <= last.Size {
		t.Fatalf("open segment holds no bytes past its committed %d (stat %v)", last.Size, err)
	}
	return readGen{name: "open-appender", s: s, st: st, want: &trace.Trace{Meta: tr.Meta, Jobs: tr.Jobs[:st.Jobs()]}}
}

// zeroSegmentsGen is a committed empty generation: every reader must
// still answer with the manifest's identity.
func zeroSegmentsGen(t *testing.T) readGen {
	s, _ := openStore(t, t.TempDir(), 0)
	empty := &trace.Trace{Meta: zeroMeta}
	p, err := core.NewPartial(zeroMeta, false)
	if err != nil {
		t.Fatal(err)
	}
	st := commitTrace(t, s, "empty", empty, p)
	if st.Segments() != 0 {
		t.Fatalf("empty generation has %d segments", st.Segments())
	}
	return readGen{name: "zero-segments", s: s, st: st, want: empty}
}

// readResult is what one reader made of a generation: the fingerprint
// of the jobs it yielded ("" for a reader that yields only an
// aggregate), the report bytes, and the job count.
type readResult struct {
	fp     string
	report []byte
	jobs   int
}

// jobFold folds a reader's jobs, in order, into a fingerprint and an
// aggregate.
type jobFold struct {
	h    *trace.Hasher
	p    *core.Partial
	jobs int
}

func newJobFold(t *testing.T, meta trace.Meta) *jobFold {
	t.Helper()
	f := &jobFold{h: trace.NewHasher()}
	if err := f.h.Begin(meta); err != nil {
		t.Fatal(err)
	}
	var err error
	if f.p, err = core.NewPartial(meta, false); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *jobFold) add(j *trace.Job) error {
	f.jobs++
	f.p.Observe(j)
	return f.h.Write(j)
}

func (f *jobFold) result(t *testing.T) readResult {
	return readResult{fp: f.h.Sum(), report: finalReport(t, f.p), jobs: f.jobs}
}

// finalReport is reportBytes, except that an empty aggregate's refusal
// to report stands in for the bytes: the zero-segment row's readers
// must agree on it too.
func finalReport(t *testing.T, p *core.Partial) []byte {
	if p.Jobs() == 0 {
		if _, err := p.Report(8); err != nil {
			return []byte(err.Error())
		}
	}
	return reportBytes(t, p)
}

// readPaths are the table's readers. Collect runs first and returns its
// trace, so the table can re-hash its jobs once every later reader has
// reused the pooled decode batches.
var readPaths = []struct {
	name string
	read func(t *testing.T, g readGen) (readResult, *trace.Trace)
}{
	{"Collect", func(t *testing.T, g readGen) (readResult, *trace.Trace) {
		back, err := g.st.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if back.Meta != g.st.Meta() {
			t.Fatalf("Collect Meta %+v, want %+v", back.Meta, g.st.Meta())
		}
		f := newJobFold(t, back.Meta)
		for _, j := range back.Jobs {
			if err := f.add(j); err != nil {
				t.Fatal(err)
			}
		}
		return f.result(t), back
	}},
	{"Each", func(t *testing.T, g readGen) (readResult, *trace.Trace) {
		f := newJobFold(t, g.st.Meta())
		if err := g.st.Each(f.add); err != nil {
			t.Fatal(err)
		}
		return f.result(t), nil
	}},
	{"WindowShards", func(t *testing.T, g readGen) (readResult, *trace.Trace) {
		meta := g.st.Meta()
		f := newJobFold(t, meta)
		srcs, _ := g.st.WindowShards(meta.Start, meta.Start.Add(meta.Length))
		for _, src := range srcs {
			if src.Meta() != meta {
				t.Fatalf("shard Meta %+v, want %+v", src.Meta(), meta)
			}
			if _, err := trace.Copy(sinkFunc(f.add), src); err != nil {
				t.Fatal(err)
			}
		}
		return f.result(t), nil
	}},
	{"ParallelScanPartial", func(t *testing.T, g readGen) (readResult, *trace.Trace) {
		p, _, err := g.st.ParallelScanPartial(ParallelScanOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return readResult{report: finalReport(t, p), jobs: p.Jobs()}, nil
	}},
	{"LoadPartial", func(t *testing.T, g readGen) (readResult, *trace.Trace) {
		p, err := g.st.LoadPartial()
		if err != nil || p == nil {
			t.Fatalf("LoadPartial: %v (partial %v)", err, p != nil)
		}
		return readResult{report: finalReport(t, p), jobs: p.Jobs()}, nil
	}},
	{"Appender.Each", func(t *testing.T, g readGen) (readResult, *trace.Trace) {
		a, _, err := g.s.OpenAppend(g.st.Name(), g.st.Meta())
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		f := newJobFold(t, g.st.Meta())
		if err := a.Each(f.add); err != nil {
			t.Fatal(err)
		}
		return f.result(t), nil
	}},
}

// sinkFunc adapts a job callback to trace.Sink.
type sinkFunc func(*trace.Job) error

func (sinkFunc) Begin(trace.Meta) error      { return nil }
func (fn sinkFunc) Write(j *trace.Job) error { return fn(j) }

// checkReadPaths runs every reader over g: each must yield the
// generation's fingerprint and report bytes and no job past the
// committed prefix, and Collect's jobs must still re-hash to the
// fingerprint after the others have run.
func checkReadPaths(t *testing.T, g readGen) {
	ref := newJobFold(t, g.want.Meta)
	for _, j := range g.want.Jobs {
		if err := ref.add(j); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.result(t)
	wantFP, wantReport := want.fp, want.report
	if g.st.Fingerprint() != wantFP {
		t.Fatalf("%s: committed fingerprint %.12s, reference %.12s", g.name, g.st.Fingerprint(), wantFP)
	}
	var collected *trace.Trace
	for _, rp := range readPaths {
		var back *trace.Trace
		ok := t.Run(g.name+"/"+rp.name, func(t *testing.T) {
			var got readResult
			got, back = rp.read(t, g)
			if got.jobs != g.want.Len() {
				t.Fatalf("read %d jobs, the generation committed %d", got.jobs, g.want.Len())
			}
			if got.fp != "" && got.fp != wantFP {
				t.Fatalf("fingerprint %.12s, want %.12s", got.fp, wantFP)
			}
			if !bytes.Equal(got.report, wantReport) {
				t.Fatal("report bytes differ from the in-memory aggregate of the committed jobs")
			}
		})
		if ok && back != nil {
			collected = back
		}
	}
	if collected != nil {
		if fp := fingerprint(t, collected); fp != wantFP {
			t.Fatalf("%s: Collect's jobs re-hash to %.12s after the other readers ran, want %.12s: they alias a reused batch", g.name, fp, wantFP)
		}
	}
}

// TestSegmentReadPaths is the one read-path table: every reader of a
// committed generation — Each, Collect, WindowShards over the full span,
// ParallelScanPartial, LoadPartial and the appender's readback — over
// every generation shape the store holds: packed, fragmented with a
// lagging checkpoint, under an open appender with bytes past the
// committed size, and empty.
func TestSegmentReadPaths(t *testing.T) {
	tr := genTrace(t, "FB-2009", 31, 3*24*time.Hour)
	for _, g := range []readGen{
		packedGen(t, tr),
		fragmentedGen(t, tr),
		openAppenderGen(t, tr),
		zeroSegmentsGen(t),
	} {
		checkReadPaths(t, g)
	}
}

// TestOpenZeroSegmentsMeta is the table's zero-segment row on its own:
// a committed empty generation answers every reader with the manifest's
// metadata and identity, with no first segment to delegate to.
func TestOpenZeroSegmentsMeta(t *testing.T) {
	checkReadPaths(t, zeroSegmentsGen(t))
}
