package storage

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// fragmentTrace drives tr into name across `sessions` appender
// lifetimes of `batchesPer` batch commits each — the most fragmented
// shape live ingest produces: every resumed session opens a new
// segment file and every batch commit cuts a colseg block. One hasher
// and aggregate span all sessions, so the committed fingerprint is the
// canonical one. Returns the final committed trace and fingerprint.
func fragmentTrace(t testing.TB, s *Store, name string, tr *trace.Trace, sessions, batchesPer int) (*Trace, string) {
	t.Helper()
	hasher := trace.NewHasher()
	if err := hasher.Begin(tr.Meta); err != nil {
		t.Fatal(err)
	}
	live, err := core.NewPartial(tr.Meta, false)
	if err != nil {
		t.Fatal(err)
	}
	var committed *Trace
	fp := ""
	for _, chunk := range appendBatches(tr, sessions) {
		a, _, err := s.OpenAppend(name, tr.Meta)
		if err != nil {
			t.Fatal(err)
		}
		part := trace.New(tr.Meta)
		part.Jobs = chunk
		for _, batch := range appendBatches(part, batchesPer) {
			for _, j := range batch {
				if err := a.Append(j); err != nil {
					t.Fatal(err)
				}
				if err := hasher.Write(j); err != nil {
					t.Fatal(err)
				}
				live.Observe(j)
			}
			fp = hasher.Sum()
			frozen, err := live.Clone()
			if err != nil {
				t.Fatal(err)
			}
			sealed, err := a.Seal(fp, frozen)
			if err != nil {
				t.Fatal(err)
			}
			if committed, err = a.Commit(sealed); err != nil {
				t.Fatal(err)
			}
		}
		a.Close()
	}
	return committed, fp
}

// reportBytes finalizes p at the default report width — the wire bytes
// the differential gates compare.
func reportBytes(t testing.TB, p *core.Partial) []byte {
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

// TestParallelScanByteIdentity: the block-parallel scan must report
// exactly the bytes of the sequential in-memory build, with the same
// partial snapshot at any worker count, sketched or exact, over a
// maximally fragmented trace (many small segments, underfilled blocks).
// Snapshots compare across worker counts, not against the sequential
// build: exact sums keep merge-dependent (value-identical) expansions.
func TestParallelScanByteIdentity(t *testing.T) {
	tr := genTrace(t, "FB-2009", 3, 26*time.Hour)
	s, _ := openStore(t, t.TempDir(), 500)
	tt, _ := fragmentTrace(t, s, "live", tr, 6, 4)
	if tt.Segments() < 6 {
		t.Fatalf("fragmentation produced only %d segments", tt.Segments())
	}
	for _, sketch := range []bool{false, true} {
		ref, err := core.BuildPartial(trace.NewSliceSource(tr), sketch)
		if err != nil {
			t.Fatal(err)
		}
		want := reportBytes(t, ref)
		var wantSnap []byte
		for _, workers := range []int{1, 2, 3, 8} {
			p, stats, err := tt.ParallelScanPartial(ParallelScanOptions{Workers: workers, Sketch: sketch})
			if err != nil {
				t.Fatalf("sketch=%t workers=%d: %v", sketch, workers, err)
			}
			if got := reportBytes(t, p); !bytes.Equal(got, want) {
				t.Errorf("sketch=%t workers=%d: report diverges from the sequential build", sketch, workers)
			}
			snap, err := p.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if wantSnap == nil {
				wantSnap = snap
			} else if !bytes.Equal(snap, wantSnap) {
				t.Errorf("sketch=%t workers=%d: partial snapshot diverges from workers=1", sketch, workers)
			}
			if stats.Segments != tt.Segments() {
				t.Errorf("workers=%d: stats cover %d segments, trace has %d", workers, stats.Segments, tt.Segments())
			}
		}
	}
}

// TestParallelScanWindowIdentity: the windowed block-parallel scan must
// match the sequential build over the in-memory window — same report
// bytes, one snapshot at any worker count — and WindowShards' pruning
// evidence, including a window that prunes everything.
func TestParallelScanWindowIdentity(t *testing.T) {
	tr := genTrace(t, "CC-b", 2, 26*time.Hour)
	s, _ := openStore(t, t.TempDir(), 400)
	tt, _ := fragmentTrace(t, s, "live", tr, 5, 3)
	meta := tt.Meta()

	windows := []struct {
		name     string
		from, to time.Time
	}{
		{"mid", meta.Start.Add(6 * time.Hour), meta.Start.Add(12 * time.Hour)},
		{"tail", meta.Start.Add(20 * time.Hour), meta.Start.Add(meta.Length)},
		{"empty", meta.Start.Add(100 * time.Hour), meta.Start.Add(101 * time.Hour)},
	}
	for _, win := range windows {
		t.Run(win.name, func(t *testing.T) {
			wmeta := trace.Meta{
				Name:     meta.Name,
				Machines: meta.Machines,
				Start:    win.from,
				Length:   win.to.Sub(win.from),
			}
			ref, err := core.BuildPartial(trace.NewSliceSource(tr.Window(win.from, win.to.Sub(win.from))), false)
			if err != nil {
				t.Fatal(err)
			}
			srcs, refStats := tt.WindowShards(win.from, win.to)
			if n := drainCount(t, srcs, win.from, win.to); n != ref.Jobs() {
				t.Fatalf("window shards yield %d in-window jobs, in-memory window has %d", n, ref.Jobs())
			}
			// An all-pruned window yields a zero partial whose Report
			// errors; identity there is at the snapshot level.
			var want, wantSnap []byte
			if win.name != "empty" {
				want = reportBytes(t, ref)
			} else if wantSnap, err = ref.MarshalBinary(); err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{1, 4} {
				p, stats, err := tt.ParallelScanPartial(ParallelScanOptions{
					Workers: workers,
					Window:  true,
					From:    win.from,
					To:      win.to,
					Meta:    wmeta,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				snap, err := p.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if wantSnap == nil {
					wantSnap = snap
				} else if !bytes.Equal(snap, wantSnap) {
					t.Errorf("workers=%d: windowed partial snapshot diverges", workers)
				}
				if want != nil && !bytes.Equal(reportBytes(t, p), want) {
					t.Errorf("workers=%d: windowed report diverges from the sequential window scan", workers)
				}
				if stats.SegmentsPruned != refStats.SegmentsPruned {
					t.Errorf("workers=%d: pruned %d segments, sequential pruned %d",
						workers, stats.SegmentsPruned, refStats.SegmentsPruned)
				}
				if stats.BlocksPruned() != refStats.BlocksPruned() {
					t.Errorf("workers=%d: pruned %d blocks, sequential pruned %d",
						workers, stats.BlocksPruned(), refStats.BlocksPruned())
				}
				if stats.BlocksRead() != refStats.BlocksRead() {
					t.Errorf("workers=%d: read %d blocks, sequential read %d",
						workers, stats.BlocksRead(), refStats.BlocksRead())
				}
			}
		})
	}
}

// TestSegmentSpanPruning: the HasSpan bit separates a genuine
// epoch-adjacent (0,0) submit span — which must prune windows that
// exclude the epoch — from a legacy manifest that recorded nothing,
// which must never prune.
func TestSegmentSpanPruning(t *testing.T) {
	epoch := SegmentInfo{HasSpan: true}
	if !epoch.spanKnown() {
		t.Error("explicit epoch span not recognized as known")
	}
	if !epoch.pruneOutside(100, 200) {
		t.Error("epoch-adjacent segment failed to prune a later window")
	}
	if epoch.pruneOutside(0, 50) {
		t.Error("epoch-adjacent segment pruned a window covering it")
	}
	legacy := SegmentInfo{}
	if legacy.spanKnown() {
		t.Error("legacy zero span treated as known")
	}
	if legacy.pruneOutside(100, 200) {
		t.Error("legacy unknown span pruned a window")
	}
	known := SegmentInfo{MinSubmitSec: 300, MaxSubmitSec: 400}
	if !known.spanKnown() || !known.pruneOutside(100, 200) {
		t.Error("legacy non-zero span lost its pruning power")
	}
}
