package analysis

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/binenc"
	"repro/internal/stats"
	"repro/internal/units"
)

// Binary snapshot encoding for the three streamed section builders, so
// the durable storage engine can persist a core.Partial and a restarted
// service can finalize reports without re-reading a single job. The
// encodings restore builder state exactly — integer bins, exact-sum
// expansions, and (in exact Figure 1 mode) the raw per-job samples — so
// a decoded builder's Result()/Series() is byte-identical to the live
// builder's, and it remains a valid merge partner for future shards.

// AppendBinary appends the Figure 1 builder state. Exact mode stores
// the three per-job sample arrays verbatim; sketch mode stores the
// three fixed-memory sketches.
func (b *DataSizeBuilder) AppendBinary(buf []byte) []byte {
	buf = binenc.AppendString(buf, b.workload)
	buf = binenc.AppendBool(buf, b.sketch)
	buf = binenc.AppendUvarint(buf, uint64(b.n))
	if b.sketch {
		buf = b.hin.AppendBinary(buf)
		buf = b.hsh.AppendBinary(buf)
		return b.ho.AppendBinary(buf)
	}
	for _, col := range b.columns() {
		buf = binenc.AppendUvarint(buf, uint64(len(col)))
		buf = binenc.AppendFloat64s(buf, col)
	}
	return buf
}

// EncodedSize bounds the bytes AppendBinary appends, so a snapshot
// encoder can size its buffer once.
func (b *DataSizeBuilder) EncodedSize() int {
	n := stringSize(b.workload) + 1 + binenc.MaxVarintLen
	if b.sketch {
		return n + b.hin.EncodedSize() + b.hsh.EncodedSize() + b.ho.EncodedSize()
	}
	return n + 3*binenc.MaxVarintLen + 8*(len(b.in)+len(b.sh)+len(b.out))
}

// stringSize bounds the bytes binenc.AppendString appends for s.
func stringSize(s string) int { return binenc.MaxVarintLen + len(s) }

// Sketch reports whether the builder accumulates in fixed-memory
// sketch mode.
func (b *DataSizeBuilder) Sketch() bool { return b.sketch }

// ReadDataSizeBuilder decodes a builder written by AppendBinary. It
// never sorts: the decoded builder is frozen exactly when every column
// was stored ascending (an O(N) check), otherwise its sorted prefix is
// the longest one the three columns share. It errors when an exact-mode
// column's length disagrees with the job count.
func ReadDataSizeBuilder(r *binenc.Reader) (*DataSizeBuilder, error) {
	b := &DataSizeBuilder{
		workload: r.String(),
		sketch:   r.Bool(),
		n:        int(r.Uvarint()),
	}
	if b.sketch {
		b.hin = stats.ReadQuantileSketch(r)
		b.hsh = stats.ReadQuantileSketch(r)
		b.ho = stats.ReadQuantileSketch(r)
		return b, nil
	}
	b.sorted = b.n
	for _, col := range []*[]float64{&b.in, &b.sh, &b.out} {
		n := r.Count(8)
		if r.Err() == nil && n != b.n {
			return nil, fmt.Errorf("analysis: data-size column holds %d samples for %d jobs", n, b.n)
		}
		*col = make([]float64, n)
		r.Float64s(*col)
		for i := 1; i < min(b.sorted, n); i++ {
			if (*col)[i] < (*col)[i-1] {
				b.sorted = i
			}
		}
	}
	b.sorted = min(b.sorted, len(b.in))
	return b, nil
}

// AppendBinary appends the Figures 7–9 builder state: the origin and
// every hourly bin (integer counts and byte totals, exact-sum task
// time). The origin is stored at nanosecond precision so a decoded
// builder merges with live shard builders of the same trace.
func (b *TimeSeriesBuilder) AppendBinary(buf []byte) []byte {
	buf = binenc.AppendString(buf, b.workload)
	buf = binenc.AppendVarint(buf, b.start.UnixNano())
	buf = binenc.AppendUvarint(buf, uint64(b.hours))
	for h := 0; h < b.hours; h++ {
		buf = binenc.AppendVarint(buf, b.jobs[h])
		buf = binenc.AppendVarint(buf, int64(b.bytes[h]))
		buf = b.task[h].AppendBinary(buf)
		buf = b.spread[h].AppendBinary(buf)
	}
	return buf
}

// EncodedSize bounds the bytes AppendBinary appends.
func (b *TimeSeriesBuilder) EncodedSize() int {
	n := stringSize(b.workload) + 2*binenc.MaxVarintLen
	for h := 0; h < b.hours; h++ {
		n += 2*binenc.MaxVarintLen + b.task[h].EncodedSize() + b.spread[h].EncodedSize()
	}
	return n
}

// ReadTimeSeriesBuilder decodes a builder written by AppendBinary. It
// errors (through the reader) on a bin count that cannot fit the
// remaining input.
func ReadTimeSeriesBuilder(r *binenc.Reader) *TimeSeriesBuilder {
	b := &TimeSeriesBuilder{
		workload: r.String(),
		start:    time.Unix(0, r.Varint()).UTC(),
		hours:    r.Count(2),
	}
	b.jobs = make([]int64, b.hours)
	b.bytes = make([]units.Bytes, b.hours)
	b.task = make([]stats.ExactSum, b.hours)
	b.spread = make([]stats.ExactSum, b.hours)
	for h := 0; h < b.hours; h++ {
		b.jobs[h] = r.Varint()
		b.bytes[h] = units.Bytes(r.Varint())
		b.task[h] = stats.ReadExactSum(r)
		b.spread[h] = stats.ReadExactSum(r)
	}
	return b
}

// AppendBinary appends the Figure 10 builder state, with the first-word
// buckets in sorted word order so the encoding is deterministic.
func (b *NamesBuilder) AppendBinary(buf []byte) []byte {
	buf = binenc.AppendString(buf, b.workload)
	buf = binenc.AppendBool(buf, b.named)
	buf = binenc.AppendVarint(buf, b.totJobs)
	buf = binenc.AppendVarint(buf, int64(b.totBytes))
	buf = b.totTask.AppendBinary(buf)
	words := make([]string, 0, len(b.groups))
	for w := range b.groups {
		words = append(words, w)
	}
	sort.Strings(words)
	buf = binenc.AppendUvarint(buf, uint64(len(words)))
	for _, w := range words {
		g := b.groups[w]
		buf = binenc.AppendString(buf, w)
		buf = binenc.AppendVarint(buf, g.jobs)
		buf = binenc.AppendVarint(buf, int64(g.bytes))
		buf = g.taskTime.AppendBinary(buf)
	}
	return buf
}

// EncodedSize bounds the bytes AppendBinary appends.
func (b *NamesBuilder) EncodedSize() int {
	n := stringSize(b.workload) + 1 + 3*binenc.MaxVarintLen + b.totTask.EncodedSize()
	for w, g := range b.groups {
		n += stringSize(w) + 2*binenc.MaxVarintLen + g.taskTime.EncodedSize()
	}
	return n
}

// ReadNamesBuilder decodes a builder written by AppendBinary.
func ReadNamesBuilder(r *binenc.Reader) (*NamesBuilder, error) {
	b := &NamesBuilder{
		workload: r.String(),
		named:    r.Bool(),
		totJobs:  r.Varint(),
		totBytes: units.Bytes(r.Varint()),
		totTask:  stats.ReadExactSum(r),
		groups:   make(map[string]*nameAgg),
	}
	n := r.Count(3)
	for i := 0; i < n; i++ {
		w := r.String()
		g := &nameAgg{
			jobs:     r.Varint(),
			bytes:    units.Bytes(r.Varint()),
			taskTime: stats.ReadExactSum(r),
		}
		if r.Err() != nil {
			break
		}
		if _, dup := b.groups[w]; dup {
			return nil, fmt.Errorf("analysis: duplicate name bucket %q in snapshot", w)
		}
		b.groups[w] = g
	}
	return b, nil
}
