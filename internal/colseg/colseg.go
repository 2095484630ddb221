// Package colseg is the compact columnar segment codec of the durable
// storage engine: the binary on-disk representation of a run of job
// records, built for raw scan speed. Canonical JSONL (package trace)
// stays the interchange format and the bytes trace identity is hashed
// over; colseg is only how committed segments are laid out on disk, so
// decoding a colseg segment yields jobs whose canonical JSONL
// re-serialization — and therefore whose fingerprint — is byte-for-byte
// identical to what a JSONL segment yields.
//
// # Layout
//
// A segment is a fixed header followed by self-contained blocks:
//
//	segment := magic[8] uvarint(version) block*
//	block   := uvarint(frameLen) payload[frameLen]
//	payload := crc32c[4, LE] body          // CRC over body
//	body    := uvarint(jobs)
//	           varint(minSubmitSec) varint(maxSubmitSec)
//	           uvarint(dictLen) dictString*
//	           column*                      // 15 columns, in order
//
// Each block holds up to BlockJobs jobs (fewer when large strings hit
// the block byte cap, or at end of segment). Blocks are the unit of
// everything: checksumming (CRC-32C over the body), corruption
// isolation, time-range pruning, and decode batching. A block is fully
// self-contained — per-block string dictionary, per-block delta bases —
// so a pruned block is skipped without decoding a single column and a
// corrupt block cannot poison its neighbors.
//
// # Columns
//
// Within a block, each field of trace.Job is one column: the values for
// all jobs, concatenated, in job order. Small integers are zigzag
// varints; job IDs and submit seconds are delta-encoded against the
// previous job in the block (first job: delta from zero), so a
// chronological trace with counting IDs costs ~1 byte per job for each.
// Submit times are split into unix seconds (delta varint) +
// nanosecond-of-second (fixed 4-byte little-endian; always below 1e9,
// and uniform enough in real traces that varints average wider) + zone
// offset seconds (varint, 0 for UTC), which round-trips every
// time.Time the JSONL codec can represent, including the full year
// range 0–9999 that overflows UnixNano. Name and path strings are uvarint references into the block
// dictionary (0 = empty string, k = dictionary entry k-1), so repeated
// job names and hashed HDFS paths are stored once per block. The wide
// columns — duration nanoseconds and the three byte counts — are fixed
// 8-byte little-endian, as are the task-time floats (IEEE-754 bits):
// their values cost 5–10 varint bytes anyway, and fixed width turns the
// scan's hottest loops into single loads with no data-dependent
// continuation logic.
//
// # Zone maps
//
// The min/max submit-second stats sit at the front of the body, before
// the dictionary. A FrameScanner given a time range reads just the
// frame length and those stats — one bounded header read per frame —
// and when the block lies wholly outside the range it skips the frame
// by advancing its offset: a pruned frame is never read, verified or
// decoded. The stats are second-floored, so pruning is conservative: a
// block is only skipped when every job in it is strictly outside the
// requested range.
//
// # Reading
//
// A segment is read one way: a FrameScanner bounded by the committed
// size frames the blocks it keeps, and a BlockDecoder CRC-verifies each
// frame and parses every column of it, running every structural check
// on every row. The parse has two consumers. Decode materializes the
// block as one reused job batch, for readers that want jobs. DecodeColumns
// keeps only the rows submitted in a window — compared on the decoded
// (second, nanosecond) pair, exactly trace.Trace.Window's test at any
// year — and gathers only their values of the fields a streamed report
// reads, as a trace.Columns: no job is built. A sequential read pairs
// one scanner with one decoder; a parallel scan feeds one scanner's
// frames to several decoders, which decode columns.
package colseg

import (
	"hash/crc32"
)

// Magic is the 8-byte segment header; the trailing 1 is the format
// version generation (bumped with Version on incompatible change).
const Magic = "swimcsg1"

// Version is the format version written after the magic.
const Version = 1

// maxBlockBytes soft-caps a block's encoded size: a block also rotates
// when its columns outgrow this, so jobs with multi-megabyte strings
// cannot make one block (the corruption/retry unit) arbitrarily large.
// A single oversized job still always fits — the cap is checked between
// jobs, never splitting one.
const maxBlockBytes = 1 << 20

// castagnoli is the CRC-32C polynomial table, the same checksum the
// storage engine uses at file granularity.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Column order within a block. Every column is present for every block;
// a field the trace does not carry (e.g. paths in FB-2009) costs one
// zero byte per job.
const (
	colID = iota
	colNameRef
	colSubmitSec
	colSubmitNanos
	colZoneOffset
	colDuration
	colInputBytes
	colShuffleBytes
	colOutputBytes
	colMapTime
	colReduceTime
	colMapTasks
	colReduceTasks
	colInputPathRef
	colOutputPathRef
	numCols
)
