package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// TestSnapshotBytesAcrossProducers: one generated trace's frozen
// partial snapshots to the same bytes whichever producer built it — an
// upload through the write session, the same jobs as live appends in
// small batches, LoadPartial after a restart with a lagging checkpoint,
// core.BuildTracePartial at k=1 and k=3, and ParallelScanPartial at 1
// and 4 workers — because every producer folds columns and exact sums
// encode canonically.
func TestSnapshotBytesAcrossProducers(t *testing.T) {
	tr := genTrace(t, "FB-2009", 5, 26*time.Hour)
	dir := t.TempDir()
	s1, ts1 := diskServer(t, dir, Config{})
	ingestTrace(t, ts1, "upload", tr)
	appendTrace(t, ts1, "live", tr, 61)

	snap := func(t *testing.T, p *core.Partial) []byte {
		t.Helper()
		if p == nil {
			t.Fatal("no partial")
		}
		p.Freeze()
		b, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	got := map[string][]byte{}
	for _, name := range []string{"upload", "live"} {
		v, err := s1.Store().View(name)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = snap(t, v.Partial)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	var man struct {
		Jobs    int `json:"jobs"`
		Partial struct {
			File string `json:"file"`
		} `json:"partial"`
	}
	b, err := os.ReadFile(filepath.Join(dir, "traces", "live", "manifest.json"))
	if err == nil {
		err = json.Unmarshal(b, &man)
	}
	if err != nil {
		t.Fatal(err)
	}
	if b, err = os.ReadFile(filepath.Join(dir, "traces", "live", man.Partial.File)); err != nil {
		t.Fatal(err)
	}
	checkpoint, err := core.UnmarshalPartial(b)
	if err != nil {
		t.Fatal(err)
	}
	if checkpoint.Jobs() >= man.Jobs {
		t.Fatalf("the checkpoint covers %d of %d jobs; the test needs a lagging one", checkpoint.Jobs(), man.Jobs)
	}

	s2, _ := diskServer(t, dir, Config{})
	live, err := s2.Store().View("live")
	if err != nil {
		t.Fatal(err)
	}
	p, err := live.Stored.LoadPartial()
	if err != nil {
		t.Fatal(err)
	}
	got["LoadPartial"] = snap(t, p)
	for _, k := range []int{1, 3} {
		p, err := core.BuildTracePartial(tr, k, false)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprint("BuildTracePartial/k=", k)] = snap(t, p)
	}
	up, err := s2.Store().View("upload")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		p, _, err := up.Stored.ParallelScanPartial(storage.ParallelScanOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprint("ParallelScanPartial/workers=", workers)] = snap(t, p)
	}

	want := got["upload"]
	for name, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("%s: the snapshot differs from the upload's (%d vs %d bytes)", name, len(b), len(want))
		}
	}
}
