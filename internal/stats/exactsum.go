package stats

import (
	"math"
	"slices"
)

// ExactSum accumulates float64 values with no rounding error, using
// Shewchuk's non-overlapping expansion (the algorithm behind Python's
// math.fsum). The running sum is held as a list of partials whose exact
// mathematical sum equals the exact sum of everything added; Sum()
// rounds that exact value to the nearest float64 once, at the end.
//
// The property the mergeable analysis builders need is order
// independence: because the partials represent the sum exactly,
// Add-ing the same multiset of values in any order — or Add-ing them
// into separate accumulators and Merge-ing those — yields bit-identical
// Sum() results. Plain `+=` accumulation has no such guarantee, and a
// single last-bit difference between a sequential and a shard-merged
// hourly bin would break the byte-identical report contract.
//
// Inputs must be finite; trace validation rejects the NaN/Inf sources
// upstream. The zero value is an empty sum, ready to use.
type ExactSum struct {
	partials []float64
}

// Add folds one value into the exact running sum.
func (s *ExactSum) Add(x float64) {
	i := 0
	for _, y := range s.partials {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			s.partials[i] = lo
			i++
		}
		x = hi
	}
	s.partials = append(s.partials[:i], x)
}

// Clone returns an independent copy: Add on either never changes the
// other, since Add rewrites the expansion in place.
func (s *ExactSum) Clone() ExactSum { return ExactSum{partials: slices.Clone(s.partials)} }

// Merge folds another accumulator's exact value into this one. The
// other accumulator is not modified; merging is associative and
// commutative, which is what lets shard-parallel analysis merge partial
// sums in any grouping and still match the sequential result exactly.
func (s *ExactSum) Merge(o *ExactSum) {
	for _, p := range o.partials {
		s.Add(p)
	}
}

// Sum returns the exact accumulated value rounded once to float64. It
// does not modify the accumulator, so a frozen ExactSum can be read
// concurrently.
func (s *ExactSum) Sum() float64 {
	ps := s.partials
	n := len(ps)
	if n == 0 {
		return 0
	}
	// The partials are non-overlapping and sorted by increasing
	// magnitude; summing from the top is exact except for one possible
	// double rounding, corrected below (the tail of CPython's fsum).
	total := ps[n-1]
	i := n - 1
	var lo float64
	for i > 0 {
		i--
		x := total
		y := ps[i]
		total = x + y
		lo = y - (total - x)
		if lo != 0 {
			break
		}
	}
	if i > 0 && ((lo < 0 && ps[i-1] < 0) || (lo > 0 && ps[i-1] > 0)) {
		y := lo * 2
		x := total + y
		if y == x-total {
			total = x
		}
	}
	return total
}
