package storage

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// liveSession drives one appender the way the serving layer does: each
// batch is appended, hashed and observed into a private partial, which
// is refrozen and published as a clone for Seal.
type liveSession struct {
	a      *Appender
	hasher *trace.Hasher
	live   *core.Partial
}

func openLive(t *testing.T, s *Store, name string, meta trace.Meta) *liveSession {
	t.Helper()
	a, _, err := s.OpenAppend(name, meta)
	if err != nil {
		t.Fatal(err)
	}
	ls := &liveSession{a: a, hasher: trace.NewHasher()}
	if err := ls.hasher.Begin(meta); err != nil {
		t.Fatal(err)
	}
	if ls.live, err = core.NewPartial(meta, false); err != nil {
		t.Fatal(err)
	}
	return ls
}

// seal writes one batch and seals it, without committing.
func (ls *liveSession) seal(t *testing.T, batch []*trace.Job) *Sealed {
	t.Helper()
	for _, j := range batch {
		if err := ls.a.Append(j); err != nil {
			t.Fatal(err)
		}
		if err := ls.hasher.Write(j); err != nil {
			t.Fatal(err)
		}
		ls.live.Observe(j)
	}
	ls.live.Freeze()
	published, err := ls.live.Clone()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := ls.a.Seal(ls.hasher.Sum(), published)
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

// commit seals and commits one batch.
func (ls *liveSession) commit(t *testing.T, batch []*trace.Job) *Trace {
	t.Helper()
	committed, err := ls.a.Commit(ls.seal(t, batch))
	if err != nil {
		t.Fatal(err)
	}
	return committed
}

// smallBatches cuts jobs into batches of per jobs.
func smallBatches(jobs []*trace.Job, per int) [][]*trace.Job {
	var out [][]*trace.Job
	for i := 0; i < len(jobs); i += per {
		out = append(out, jobs[i:min(i+per, len(jobs))])
	}
	return out
}

// checkpointJobs decodes the committed snapshot and returns the jobs it
// covers.
func checkpointJobs(t *testing.T, tr *Trace) int {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(tr.dir, tr.man.Partial.File))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.UnmarshalPartial(b)
	if err != nil {
		t.Fatal(err)
	}
	return p.Jobs()
}

// oneShot returns the report and snapshot bytes of the frozen one-shot
// partial of jobs.
func oneShot(t *testing.T, meta trace.Meta, jobs []*trace.Job) (report, snap []byte) {
	t.Helper()
	p, err := core.BuildTracePartial(&trace.Trace{Meta: meta, Jobs: jobs}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	p.Freeze()
	return partialBytes(t, p)
}

func partialBytes(t *testing.T, p *core.Partial) (report, snap []byte) {
	t.Helper()
	rep, err := p.Report(8)
	if err != nil {
		t.Fatal(err)
	}
	if report, err = json.Marshal(rep.JSON()); err != nil {
		t.Fatal(err)
	}
	if snap, err = p.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	return report, snap
}

// TestCheckpointSnapshotBytes is the O(batch) count: a live feed of
// about 500 small batches commits snapshot files whose summed size is a
// constant multiple of the final snapshot, where rewriting the snapshot
// every batch would write about 250 of them.
func TestCheckpointSnapshotBytes(t *testing.T) {
	tr := genTrace(t, "CC-b", 21, 3*24*time.Hour)
	batches := smallBatches(tr.Jobs, max(1, tr.Len()/500))
	s, _ := openStore(t, t.TempDir(), 2000)
	ls := openLive(t, s, "live", tr.Meta)
	defer ls.a.Close()
	written := map[string]int64{}
	var last *Trace
	for _, batch := range batches {
		last = ls.commit(t, batch)
		written[last.man.Partial.File] = last.man.Partial.Size
	}
	var total int64
	for _, size := range written {
		total += size
	}
	const bound = 16 // checkpoints sum to ~9 final-size snapshots
	perJob := float64(total) / float64(tr.Len())
	t.Logf("%d batches of %d jobs: %d snapshots, %d B in all, %.0f B per appended job",
		len(batches), len(batches[0]), len(written), total, perJob)
	if perJob > bound*24 {
		t.Fatalf("snapshots written sum to %.0f B per appended job, want at most %d × 24 B", perJob, bound)
	}
	if lag := tr.Len() - checkpointJobs(t, last); lag*checkpointFraction >= tr.Len() {
		t.Fatalf("committed checkpoint lags %d of %d jobs, want under 1/%d", lag, tr.Len(), checkpointFraction)
	}
}

// TestLoadPartialReplaysPastCheckpoint: after a restart, a trace whose
// committed checkpoint lags its manifest loads a partial covering every
// committed job, with the report and the snapshot bytes of the one-shot
// build. A checkpoint covering more jobs than the manifest is refused.
func TestLoadPartialReplaysPastCheckpoint(t *testing.T) {
	tr := genTrace(t, "FB-2009", 22, 26*time.Hour)
	root := t.TempDir()
	s, _ := openStore(t, root, 300)
	ls := openLive(t, s, "live", tr.Meta)
	var last *Trace
	for _, batch := range smallBatches(tr.Jobs, 9) {
		last = ls.commit(t, batch)
	}
	if covered := checkpointJobs(t, last); covered == tr.Len() {
		t.Fatalf("the last batch checkpointed all %d jobs; the test needs a lagging checkpoint", covered)
	}
	ls.a.Close()
	s.Close()

	_, rec := openStore(t, root, 300)
	if len(rec.Traces) != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
	got := rec.Traces[0]
	p, err := got.LoadPartial()
	if err != nil || p == nil {
		t.Fatalf("LoadPartial: %v", err)
	}
	if p.Jobs() != got.Jobs() || got.Jobs() != tr.Len() {
		t.Fatalf("loaded partial covers %d jobs, manifest %d, trace %d", p.Jobs(), got.Jobs(), tr.Len())
	}
	wantReport, wantSnap := oneShot(t, tr.Meta, tr.Jobs)
	gotReport, gotSnap := partialBytes(t, p)
	if !bytes.Equal(gotReport, wantReport) {
		t.Fatal("replayed partial's report differs from the one-shot build")
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Fatal("replayed partial's snapshot differs from the one-shot build")
	}

	ahead := *got.man
	ahead.Jobs = checkpointJobs(t, got) - 1
	if p, err := (&Trace{dir: got.dir, man: &ahead}).LoadPartial(); err == nil {
		t.Fatalf("a checkpoint covering more jobs than the manifest loaded (%d jobs)", p.Jobs())
	}
}

// TestCheckpointCrashBeforeCommit: a crash after a checkpoint file is
// written but before its manifest commits leaves an orphan that
// recovery sweeps; the older checkpoint plus the replay gives the
// bytes of the one-shot build of the committed jobs.
func TestCheckpointCrashBeforeCommit(t *testing.T) {
	tr := genTrace(t, "CC-e", 23, 26*time.Hour)
	root := t.TempDir()
	s, _ := openStore(t, root, 250)
	ls := openLive(t, s, "live", tr.Meta)
	batches := smallBatches(tr.Jobs, 5)
	var last *Trace
	var orphan string
	committed := 0
	for _, batch := range batches {
		sealed := ls.seal(t, batch)
		if last != nil && sealed.man.Partial.File != last.man.Partial.File && committed > len(tr.Jobs)/2 {
			orphan = sealed.man.Partial.File // crash: never committed
			break
		}
		var err error
		if last, err = ls.a.Commit(sealed); err != nil {
			t.Fatal(err)
		}
		committed += len(batch)
	}
	if orphan == "" {
		t.Fatal("no checkpoint was written past the middle of the trace")
	}
	if _, err := os.Stat(filepath.Join(root, "traces", "live", orphan)); err != nil {
		t.Fatalf("the uncommitted checkpoint is not on disk: %v", err)
	}
	ls.a.Close()
	s.Close()

	_, rec := openStore(t, root, 250)
	if len(rec.Traces) != 1 || rec.Traces[0].Jobs() != committed {
		t.Fatalf("recovery: %+v, want %d committed jobs", rec, committed)
	}
	if _, err := os.Stat(filepath.Join(root, "traces", "live", orphan)); !os.IsNotExist(err) {
		t.Fatalf("recovery left the uncommitted checkpoint %s: %v", orphan, err)
	}
	got := rec.Traces[0]
	if checkpointJobs(t, got) == committed {
		t.Fatal("the committed checkpoint does not lag; the test needs a replay")
	}
	p, err := got.LoadPartial()
	if err != nil || p == nil {
		t.Fatalf("LoadPartial: %v", err)
	}
	wantReport, wantSnap := oneShot(t, tr.Meta, tr.Jobs[:committed])
	gotReport, gotSnap := partialBytes(t, p)
	if !bytes.Equal(gotReport, wantReport) || !bytes.Equal(gotSnap, wantSnap) {
		t.Fatal("older checkpoint plus replay differs from the one-shot build of the committed jobs")
	}
}
