package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
)

// manifestName is the per-trace commit point.
const manifestName = "manifest.json"

// manifestFormat versions the manifest schema.
const manifestFormat = "swim-store-v1"

// Manifest is the committed description of one trace generation. It is
// everything the serving layer needs to register a recovered trace
// without reading a single job: identity, Table-1 totals, and the
// verified file list.
type Manifest struct {
	Format      string        `json:"format"`
	Generation  uint64        `json:"generation"`
	Name        string        `json:"name"`
	Fingerprint string        `json:"fingerprint"`
	Meta        ManifestMeta  `json:"meta"`
	Jobs        int           `json:"jobs"`
	BytesMoved  int64         `json:"bytes_moved"`
	Segments    []SegmentInfo `json:"segments"`
	// Partial describes the persisted aggregate snapshot; nil when the
	// trace stored without one (e.g. too short for hourly binning).
	Partial *FileInfo `json:"partial,omitempty"`
	// Compacted marks a generation the compactor wrote: already packed,
	// so the compaction policy never re-triggers on it. Any subsequent
	// ingest or append builds a fresh manifest without the flag.
	Compacted bool `json:"compacted,omitempty"`
}

// ManifestMeta is trace.Meta at nanosecond precision.
type ManifestMeta struct {
	Name        string `json:"name"`
	Machines    int    `json:"machines"`
	StartUnixNS int64  `json:"start_unix_ns"`
	LengthNS    int64  `json:"length_ns"`
}

// metaToManifest converts trace metadata for the manifest.
func metaToManifest(m trace.Meta) ManifestMeta {
	return ManifestMeta{
		Name:        m.Name,
		Machines:    m.Machines,
		StartUnixNS: m.Start.UnixNano(),
		LengthNS:    int64(m.Length),
	}
}

// TraceMeta converts back to trace metadata (UTC).
func (m ManifestMeta) TraceMeta() trace.Meta {
	return trace.Meta{
		Name:     m.Name,
		Machines: m.Machines,
		Start:    time.Unix(0, m.StartUnixNS).UTC(),
		Length:   time.Duration(m.LengthNS),
	}
}

// FileInfo records one committed file's verification data.
type FileInfo struct {
	File   string `json:"file"`
	Size   int64  `json:"size"`
	CRC32C uint32 `json:"crc32c"`
}

// SegmentInfo is FileInfo plus the segment's job count, so byte-range
// shards know their weight without reading, and the codec its bytes are
// encoded with, which Open requires to be CodecColumnar.
//
// MinSubmitSec/MaxSubmitSec are the segment-level zone map: the
// earliest and latest job submit times (Unix seconds) in the segment,
// letting a windowed query skip whole segment files without opening
// them (colseg's per-block zone maps then prune within kept segments).
// HasSpan distinguishes a genuine (0,0) span — every job submitted in
// the first second of the Unix epoch — from a legacy manifest that
// recorded nothing: when HasSpan is false and both bounds are zero the
// span is unknown and never prunes.
//
// Blocks counts the colseg blocks the segment writer flushed; zero for
// manifests that predate block counts. It feeds the compaction policy's
// average-block-fill trigger without opening any segment.
type SegmentInfo struct {
	FileInfo
	Jobs         int    `json:"jobs"`
	Codec        string `json:"codec,omitempty"`
	MinSubmitSec int64  `json:"min_submit_sec,omitempty"`
	MaxSubmitSec int64  `json:"max_submit_sec,omitempty"`
	HasSpan      bool   `json:"has_span,omitempty"`
	Blocks       int    `json:"blocks,omitempty"`
}

// spanKnown reports whether the segment's submit span is trustworthy:
// either the writer recorded it explicitly, or a legacy (pre-HasSpan)
// manifest carries a non-zero bound.
func (seg *SegmentInfo) spanKnown() bool {
	return seg.HasSpan || seg.MinSubmitSec != 0 || seg.MaxSubmitSec != 0
}

// pruneOutside reports whether the segment's recorded submit span lies
// wholly outside [fromSec, toSec]; an unknown span never prunes.
func (seg *SegmentInfo) pruneOutside(fromSec, toSec int64) bool {
	return seg.spanKnown() && (seg.MaxSubmitSec < fromSec || seg.MinSubmitSec > toSec)
}

// errUnreadable marks a manifest that parses but names a format or a
// segment codec this build does not read: recovery refuses, not drops.
var errUnreadable = errors.New("written in a format this build does not read")

// readManifest loads and validates a manifest file. It fails with
// errUnreadable when the manifest parses but names another format or
// codec, and with any other error when it is torn or broken.
func readManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// The format is read on its own and first, so a manifest of another
	// format is refused whatever else it holds.
	var head struct{ Format string }
	if err := json.Unmarshal(b, &head); err != nil {
		return nil, fmt.Errorf("storage: parsing %s: %w", path, err)
	}
	if head.Format != manifestFormat {
		return nil, fmt.Errorf("%w: manifest format %q, not %q", errUnreadable, head.Format, manifestFormat)
	}
	var man Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("storage: parsing %s: %w", path, err)
	}
	for _, seg := range man.Segments {
		if seg.Codec == "" {
			return nil, fmt.Errorf("%w: segment %s holds canonical JSONL (empty codec), which this build no longer converts: open the data directory once with a build from a4d6a46 through 35a6182, which converts it to %s",
				errUnreadable, seg.File, CodecColumnar)
		}
		if seg.Codec != CodecColumnar {
			return nil, fmt.Errorf("%w: segment %s has codec %q, not %q", errUnreadable, seg.File, seg.Codec, CodecColumnar)
		}
	}
	if man.Name == "" || man.Generation == 0 {
		return nil, fmt.Errorf("storage: %s: incomplete manifest", path)
	}
	segJobs := 0
	for _, seg := range man.Segments {
		if seg.File == "" || seg.File != filepath.Base(seg.File) {
			return nil, fmt.Errorf("storage: %s: bad segment file name %q", path, seg.File)
		}
		segJobs += seg.Jobs
	}
	if segJobs != man.Jobs {
		return nil, fmt.Errorf("storage: %s: segment job counts sum to %d, manifest says %d", path, segJobs, man.Jobs)
	}
	if man.Partial != nil && (man.Partial.File == "" || man.Partial.File != filepath.Base(man.Partial.File)) {
		return nil, fmt.Errorf("storage: %s: bad partial file name %q", path, man.Partial.File)
	}
	return &man, nil
}

// commitManifest atomically installs man as dir's committed manifest:
// tmp write, fsync, rename over manifest.json, directory fsync. After
// this returns, a crash at any point serves exactly this generation.
func commitManifest(dir string, man *Manifest) error {
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("storage: encoding manifest: %w", err)
	}
	return replaceFileSync(filepath.Join(dir, manifestName), append(b, '\n'))
}

// genPrefix names generation gen's files.
func genPrefix(gen uint64) string { return fmt.Sprintf("g%06d", gen) }

// segmentFile names segment idx of generation gen.
func segmentFile(gen uint64, idx int) string {
	return fmt.Sprintf("%s-%05d.seg", genPrefix(gen), idx)
}

// checkpointFile names the aggregate snapshot written by seal seq of
// generation gen. The sequence keeps a seal from rewriting the
// committed snapshot in place.
func checkpointFile(gen uint64, seq int) string {
	return fmt.Sprintf("%s-b%06d.partial", genPrefix(gen), seq)
}
