package core_test

import (
	"bytes"
	"os"
	"testing"
	"time"

	"repro/internal/core"
)

// TestLegacySnapshotReencodes: a version-1 snapshot written before
// exact sums were encoded canonically (testdata/cc_c_26h_v1.partial,
// the frozen one-shot partial of the CC-c trace below, with
// testdata/cc_c_26h_v1.report.json its report from the same code)
// decodes to that report's bytes, and re-encodes to the canonical
// snapshot today's one-shot build writes, which decodes and re-encodes
// to itself.
func TestLegacySnapshotReencodes(t *testing.T) {
	legacy, err := os.ReadFile("testdata/cc_c_26h_v1.partial")
	if err != nil {
		t.Fatal(err)
	}
	wantReport, err := os.ReadFile("testdata/cc_c_26h_v1.report.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.UnmarshalPartial(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if got := append(encoded(t, p, nil), '\n'); !bytes.Equal(got, wantReport) {
		t.Fatal("the legacy snapshot decodes to other report bytes than its writer's")
	}
	canonical := snapshot(t, frozen(t, freezeTrace(t, "CC-c", 3, 26*time.Hour)))
	if got := snapshot(t, p); !bytes.Equal(got, canonical) {
		t.Fatal("the legacy snapshot re-encodes to other bytes than today's build of the same trace")
	}
	if bytes.Equal(legacy, canonical) {
		t.Fatal("the legacy snapshot already holds canonical sums; it tests no re-encoding")
	}
	again, err := core.UnmarshalPartial(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot(t, again), canonical) {
		t.Fatal("a canonical snapshot does not re-encode to itself")
	}
}
