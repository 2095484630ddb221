package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/profile"
	"repro/internal/trace"
)

func snapshotTrace(t testing.TB) *trace.Trace {
	t.Helper()
	p, err := profile.ByName("FB-2009")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate(gen.Config{Profile: p, Seed: 1, Duration: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// partialReportBytes finalizes a partial and marshals the wire form — the
// exact bytes swimd serves, which is what restart round-trips must
// preserve.
func partialReportBytes(t testing.TB, p *Partial) []byte {
	t.Helper()
	rep, err := p.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep.JSON())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPartialSnapshotRoundTrip: encode → decode preserves the report
// bytes exactly, in both exact and sketch modes, and the decoded
// partial still merges with live shards.
func TestPartialSnapshotRoundTrip(t *testing.T) {
	tr := snapshotTrace(t)
	for _, sketch := range []bool{false, true} {
		p, err := BuildTracePartial(tr, 1, sketch)
		if err != nil {
			t.Fatal(err)
		}
		want := partialReportBytes(t, p)

		snap, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		// The encoder sizes its buffer once, from a bound it must honor.
		if len(snap) > p.encodedSize() || cap(snap) != p.encodedSize() {
			t.Fatalf("sketch=%v: %d-byte snapshot in a %d-byte buffer, bound %d", sketch, len(snap), cap(snap), p.encodedSize())
		}
		got, err := UnmarshalPartial(snap)
		if err != nil {
			t.Fatalf("sketch=%v: %v", sketch, err)
		}
		if got.Jobs() != p.Jobs() || got.Sketch() != sketch || got.Meta() != p.Meta() {
			t.Fatalf("sketch=%v: identity drifted: jobs %d/%d meta %+v vs %+v",
				sketch, got.Jobs(), p.Jobs(), got.Meta(), p.Meta())
		}
		if !bytes.Equal(partialReportBytes(t, got), want) {
			t.Errorf("sketch=%v: decoded snapshot renders different report bytes", sketch)
		}

		// The decoded partial is a valid merge partner: merging the
		// decoded halves of a split trace matches the whole.
		k := 3
		shards, err := trace.SplitTrace(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := BuildPartial(shards[0], sketch)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shards[1:] {
			sp, err := BuildPartial(s, sketch)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := sp.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := UnmarshalPartial(enc)
			if err != nil {
				t.Fatal(err)
			}
			if err := merged.Merge(dec); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(partialReportBytes(t, merged), want) {
			t.Errorf("sketch=%v: merge of decoded shard snapshots drifted from sequential report", sketch)
		}
	}
}

// TestPartialSnapshotRejectsCorruption: bad magic, wrong version,
// truncation, and trailing garbage all fail loudly.
func TestPartialSnapshotRejectsCorruption(t *testing.T) {
	tr := snapshotTrace(t)
	p, err := BuildTracePartial(tr, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := UnmarshalPartial([]byte("not a snapshot")); err == nil {
		t.Error("bad magic accepted")
	}

	future := append([]byte(nil), snap...)
	future[len(partialMagic)] = 0x7f // version byte
	if _, err := UnmarshalPartial(future); err == nil {
		t.Error("future version accepted")
	}

	if _, err := UnmarshalPartial(snap[:len(snap)/2]); err == nil {
		t.Error("truncated snapshot accepted")
	}

	trailing := append(append([]byte(nil), snap...), 0xde, 0xad)
	if _, err := UnmarshalPartial(trailing); err == nil {
		t.Error("trailing bytes accepted")
	}
}
