package core

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/binenc"
	"repro/internal/trace"
	"repro/internal/units"
)

// Durable snapshots of Partial aggregates. The storage engine persists
// one next to every stored trace so a restarted service finalizes cold
// reports from disk instead of rescanning jobs. The format is versioned
// and self-identifying; decoding restores the aggregate exactly —
// Report() on the decoded partial is byte-identical to Report() on the
// original, and the decoded partial remains a valid Merge partner.
//
// Layout: magic, uvarint version, then the version-1 body (trace
// metadata at nanosecond precision, mode flag, job count, and the four
// section builders in their packages' binary encodings). Integrity is
// the storage layer's job — the manifest records a CRC per snapshot
// file — but decode still validates structure and rejects trailing
// bytes, so a mangled snapshot fails loudly instead of serving skewed
// analytics.

// partialMagic identifies a Partial snapshot file.
var partialMagic = []byte("swim-partial\n")

// PartialSnapshotVersion is the current snapshot format version.
const PartialSnapshotVersion = 1

// MarshalBinary encodes the partial as a versioned snapshot, into one
// buffer sized up front from the section builders.
func (p *Partial) MarshalBinary() ([]byte, error) {
	b := append(make([]byte, 0, p.encodedSize()), partialMagic...)
	b = binenc.AppendUvarint(b, PartialSnapshotVersion)
	b = binenc.AppendString(b, p.meta.Name)
	b = binenc.AppendUvarint(b, uint64(p.meta.Machines))
	b = binenc.AppendVarint(b, p.meta.Start.UnixNano())
	b = binenc.AppendVarint(b, int64(p.meta.Length))
	b = binenc.AppendBool(b, p.sketch)
	b = binenc.AppendUvarint(b, uint64(p.n))
	sum := p.sum.Summary()
	b = binenc.AppendUvarint(b, uint64(sum.Jobs))
	b = binenc.AppendVarint(b, int64(sum.BytesMoved))
	b = p.ds.AppendBinary(b)
	b = p.ts.AppendBinary(b)
	b = p.nb.AppendBinary(b)
	return b, nil
}

// encodedSize bounds the bytes MarshalBinary produces.
func (p *Partial) encodedSize() int {
	// Version, name length, machines, start, length, mode, job count
	// and the two summary counters: nine fields of at most a varint each.
	const header = 9 * binenc.MaxVarintLen
	return len(partialMagic) + header + len(p.meta.Name) +
		p.ds.EncodedSize() + p.ts.EncodedSize() + p.nb.EncodedSize()
}

// UnmarshalPartial decodes a snapshot written by MarshalBinary. It
// rejects unknown magic, unsupported versions, structural corruption,
// and trailing bytes. It never sorts: the decoded partial is frozen
// exactly when the snapshot's Figure 1 columns are all ascending, as a
// frozen partial's are.
func UnmarshalPartial(data []byte) (*Partial, error) {
	if !bytes.HasPrefix(data, partialMagic) {
		return nil, fmt.Errorf("core: not a partial snapshot (bad magic)")
	}
	r := binenc.NewReader(data[len(partialMagic):])
	version := r.Uvarint()
	if r.Err() == nil && version != PartialSnapshotVersion {
		return nil, fmt.Errorf("core: partial snapshot version %d is not supported (want %d)", version, PartialSnapshotVersion)
	}
	meta := trace.Meta{
		Name:     r.String(),
		Machines: int(r.Uvarint()),
		Start:    time.Unix(0, r.Varint()).UTC(),
		Length:   time.Duration(r.Varint()),
	}
	p := &Partial{
		meta:   meta,
		sketch: r.Bool(),
		n:      int(r.Uvarint()),
	}
	p.sum = trace.RestoreSummaryAccumulator(trace.Summary{
		Name:       meta.Name,
		Machines:   meta.Machines,
		Length:     meta.Length,
		Jobs:       int(r.Uvarint()),
		BytesMoved: units.Bytes(r.Varint()),
	})
	ds, err := analysis.ReadDataSizeBuilder(r)
	if err != nil {
		return nil, err
	}
	p.ds = ds
	p.ts = analysis.ReadTimeSeriesBuilder(r)
	nb, err := analysis.ReadNamesBuilder(r)
	if err != nil {
		return nil, err
	}
	p.nb = nb
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding partial snapshot: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("core: partial snapshot carries %d trailing bytes", r.Remaining())
	}
	if p.ds.Sketch() != p.sketch {
		return nil, fmt.Errorf("core: partial snapshot mode disagrees with its data-size builder")
	}
	return p, nil
}

// Clone returns an independent copy of the partial: mutating the
// original (further Observe, Freeze or Merge calls) never changes the
// clone, and the clone's Report bytes are identical to the original's
// at the moment of the copy. It costs O(runs + hours + words) plus the
// unfrozen tail, not O(jobs): the clone shares the original's Figure 1
// runs, which no partial writes once made, and copies everything else —
// the run lists and tail, the hourly bins with their exact sums, the
// name buckets and the summary. The live-ingest path uses this to
// publish a frozen partial per committed batch while keeping one
// private mutable accumulator; the clone of a frozen partial is frozen.
func (p *Partial) Clone() (*Partial, error) {
	c := *p
	c.sum = trace.RestoreSummaryAccumulator(p.sum.Summary())
	c.ds = p.ds.Clone()
	c.ts = p.ts.Clone()
	c.nb = p.nb.Clone()
	return &c, nil
}
