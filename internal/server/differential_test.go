package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage"
)

// TestDifferentialScanFormats is the representation-independence
// acceptance test for the columnar segment format: the golden FB-2009
// day-1 trace analyzed in memory and as a columnar spill scanned
// out-of-core must produce byte-identical report bodies, and both must
// commit the pinned golden fingerprint (fingerprints hash canonical
// JSONL, so the segment codec must never show through). CI runs this
// under -race, which also exercises the columnar reader's pooled
// volatile batches across the scan's parallel shards.
func TestDifferentialScanFormats(t *testing.T) {
	tr := genTrace(t, "FB-2009", 1, 24*time.Hour)

	// The identity pin: the same golden file internal/core locks the
	// generator and canonical codec against.
	raw, err := os.ReadFile(filepath.Join("..", "core", "testdata", "fb2009_day1.fingerprint"))
	if err != nil {
		t.Fatal(err)
	}
	wantFP := string(bytes.TrimSpace(raw))

	// Reference bytes from a plain in-memory server.
	_, tsRef := newTestServer(t)
	refInfo := ingestTrace(t, tsRef, "ref", tr)
	if refInfo.Fingerprint != wantFP {
		t.Fatalf("in-memory fingerprint %s, want golden %s", refInfo.Fingerprint, wantFP)
	}
	_, want := getRaw(t, tsRef.URL+"/v1/traces/ref/report")

	t.Run(storage.CodecColumnar, func(t *testing.T) {
		// Budget a third of the trace so the upload spills, then restart
		// without the snapshot: the report has no choice but to scan the
		// segments.
		dir := t.TempDir()
		cfg := Config{MaxTotalJobs: tr.Len() / 3}
		s, ts := diskServer(t, dir, cfg)
		info := ingestTrace(t, ts, "spilled", tr)
		if info.Fingerprint != wantFP {
			t.Errorf("spill fingerprint %s, want golden %s", info.Fingerprint, wantFP)
		}
		s, ts = restartWithoutSnapshots(t, s, ts, dir, cfg)
		resp, got := getRaw(t, ts.URL+"/v1/traces/spilled/report")
		if x := resp.Header.Get("X-Analysis"); x != "disk-scan" {
			t.Fatalf("spilled report X-Analysis = %q, want disk-scan", x)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("disk-scan report differs from the in-memory reference (got %d bytes, want %d)", len(got), len(want))
		}
		// The scan really ran out-of-core: no jobs became resident.
		if st := s.Store().Stats(); st.ResidentJobs != 0 {
			t.Errorf("scan loaded %d jobs into memory", st.ResidentJobs)
		}
	})
}
