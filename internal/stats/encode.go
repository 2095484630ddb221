package stats

import (
	"repro/internal/binenc"
)

// Binary snapshot encoding for the mergeable accumulators, used by the
// durable storage engine to persist core.Partial aggregates across
// restarts. The contract is exactness: decoding an encoded accumulator
// restores its value exactly — ExactSum its sum (canonically encoded),
// histograms their integer counts, sketches their exact extrema — so a
// report finalized from a decoded snapshot is byte-identical to one
// finalized from the live accumulator.

// AppendBinary appends the sum's canonical form, the greedy expansion of
// its value (rounded to float64, then the rounded remainder, and so on;
// smallest part first): a valid expansion of the same value, alike for
// every sum of that value however it was added, merged or folded.
func (s *ExactSum) AppendBinary(b []byte) []byte {
	var parts []float64
	rest := s.Clone()
	// After the first part, a zero or overflowed (non-finite) remainder ends it.
	for x := rest.Sum(); len(rest.partials) > 0 && (parts == nil || x != 0 && x-x == 0); x = rest.Sum() {
		parts = append(parts, x)
		rest.Add(-x)
	}
	b = binenc.AppendUvarint(b, uint64(len(parts)))
	for i := len(parts) - 1; i >= 0; i-- {
		b = binenc.AppendFloat64(b, parts[i])
	}
	return b
}

// EncodedSize bounds AppendBinary's bytes: the greedy form has no more
// parts than the held expansion (FuzzExactSumCanonical checks it).
func (s *ExactSum) EncodedSize() int { return binenc.MaxVarintLen + 8*len(s.partials) }

// ReadExactSum decodes an accumulator written by AppendBinary. On
// malformed input the reader's sticky error is set and the zero sum is
// returned.
func ReadExactSum(r *binenc.Reader) ExactSum {
	n := r.Count(8)
	var s ExactSum
	if n == 0 {
		return s
	}
	s.partials = make([]float64, n)
	for i := range s.partials {
		s.partials[i] = r.Float64()
	}
	return s
}

// AppendBinary appends the histogram layout and counts.
func (h *LogHistogram) AppendBinary(b []byte) []byte {
	b = binenc.AppendUvarint(b, uint64(h.BinsPerDecade))
	b = binenc.AppendFloat64(b, h.MinExp)
	b = binenc.AppendUvarint(b, h.ZeroCount)
	b = binenc.AppendUvarint(b, h.total)
	b = binenc.AppendUvarint(b, uint64(len(h.Counts)))
	for _, c := range h.Counts {
		b = binenc.AppendUvarint(b, c)
	}
	return b
}

// EncodedSize bounds the bytes AppendBinary appends.
func (h *LogHistogram) EncodedSize() int {
	return 8 + binenc.MaxVarintLen*(4+len(h.Counts))
}

// ReadLogHistogram decodes a histogram written by AppendBinary.
func ReadLogHistogram(r *binenc.Reader) *LogHistogram {
	h := &LogHistogram{
		BinsPerDecade: int(r.Uvarint()),
		MinExp:        r.Float64(),
		ZeroCount:     r.Uvarint(),
		total:         r.Uvarint(),
	}
	n := r.Count(1)
	h.Counts = make([]uint64, n)
	for i := range h.Counts {
		h.Counts[i] = r.Uvarint()
	}
	return h
}

// AppendBinary appends the sketch: its histogram plus the exact
// min/max/minPos trackers.
func (s *QuantileSketch) AppendBinary(b []byte) []byte {
	b = s.h.AppendBinary(b)
	b = binenc.AppendFloat64(b, s.min)
	b = binenc.AppendFloat64(b, s.max)
	return binenc.AppendFloat64(b, s.minPos)
}

// EncodedSize bounds the bytes AppendBinary appends.
func (s *QuantileSketch) EncodedSize() int { return s.h.EncodedSize() + 3*8 }

// ReadQuantileSketch decodes a sketch written by AppendBinary.
func ReadQuantileSketch(r *binenc.Reader) *QuantileSketch {
	return &QuantileSketch{
		h:      ReadLogHistogram(r),
		min:    r.Float64(),
		max:    r.Float64(),
		minPos: r.Float64(),
	}
}
