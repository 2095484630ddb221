package stats

import "math"

// BlockSum is a small fixed-point superaccumulator (R. M. Neal, "Fast
// exact summation using small and large superaccumulators", 2015): a
// block-local exact sum whose Add is O(1), folded into an ExactSum once
// per block instead of paying ExactSum.Add's expansion walk per value.
//
// The accumulator is a fixed-point number with its unit at 2^-1074 (the
// smallest subnormal), held as 32-bit chunks in int64 words: word k
// weighs 2^(32k-1074). Every finite float64 is an integer multiple of
// 2^-1074, so Add places its 53-bit significand, shifted by its
// exponent, across three words exactly, adding or subtracting by sign;
// each word then moves by less than 2^32 per Add, so up to 2^30 Adds
// fit a word before its carries must be propagated, which Add does
// itself when it gets there. The value is exact, so FoldInto leaves the
// ExactSum holding exactly the value per-value Adds would have given
// it, and its Sum() is bit-identical by construction.
//
// Inputs must be finite, as for ExactSum. The zero value is an empty
// sum, ready to use.
type BlockSum struct {
	w [blockWords]int64
	// lo and hi bound the words that may be nonzero, [lo, hi); hi == 0
	// means none is.
	lo, hi int
	// adds counts Adds since the carries were last propagated.
	adds int
	// added records an Add since the last fold, and nonNegZero one of
	// anything but -0: a block of only -0 folds as -0, as ExactSum sums
	// only -0s to -0 (IEEE addition's sign of an exact zero).
	added, nonNegZero bool
}

// blockWords covers every finite float64's bits: a significand placed
// at bit exp-1 (the biased exponent less one, for subnormals 0) ends
// below bit 2046+53, in words 0..65; word 66 takes the carries.
const blockWords = 67

// blockAddLimit is how many Adds a word absorbs before Add propagates
// carries: each moves a word by less than 2^32, a propagated word
// holds less than 2^32, and 2^30 more Adds keep it well inside int64.
const blockAddLimit = 1 << 30

// Add folds one finite value into the block sum in O(1).
func (s *BlockSum) Add(x float64) {
	b := math.Float64bits(x)
	s.added = true
	if b != 1<<63 {
		s.nonNegZero = true
	}
	e := int(b >> 52 & 0x7ff)
	m := b & (1<<52 - 1)
	if e == 0 {
		if m == 0 {
			return
		}
		e = 1 // subnormal: the significand's unit is 2^-1074, like exponent 1's
	} else {
		m |= 1 << 52
	}
	// x = m·2^(p-1074): bits p.. of the fixed-point number.
	p := e - 1
	k, sh := p>>5, uint(p&31)
	lo := m << sh
	hi := m >> (64 - sh) // sh == 0 shifts everything out
	d0, d1, d2 := int64(lo&0xffffffff), int64(lo>>32), int64(hi)
	if b>>63 != 0 {
		d0, d1, d2 = -d0, -d1, -d2
	}
	s.w[k] += d0
	s.w[k+1] += d1
	s.w[k+2] += d2
	if s.hi == 0 || k < s.lo {
		s.lo = k
	}
	if k+3 > s.hi {
		s.hi = k + 3
	}
	if s.adds++; s.adds == blockAddLimit {
		s.carry()
	}
}

// carry propagates every word's carries upward, leaving words lo..hi-2
// of the touched range in [0, 2^32) and the rest in the word above.
// When the value is negative the borrow runs to the top word, which
// alone keeps a sign.
func (s *BlockSum) carry() {
	s.adds = 0
	if s.hi == 0 {
		return
	}
	k := s.lo
	for ; k < blockWords-1; k++ {
		c := s.w[k] >> 32
		if c == 0 && k >= s.hi {
			break
		}
		s.w[k] -= c << 32
		s.w[k+1] += c
	}
	s.hi = max(s.hi, k+1)
}

// FoldInto adds the block's exact value to dst and empties the block.
// The carries are propagated so every chunk carries the sign of the
// total: its magnitude in 32-bit digits. dst then takes one ExactSum.Add
// per nonzero digit. Because the digits share a sign, every value dst
// passes through lies between its old and its new value, so the fold
// overflows only where the sum itself leaves the float64 range.
func (s *BlockSum) FoldInto(dst *ExactSum) {
	if !s.added {
		return
	}
	if s.hi == 0 {
		// Only zeros: their IEEE sum, -0 when every one was -0.
		dst.Add(zeroSum(s.nonNegZero))
		s.added, s.nonNegZero = false, false
		return
	}
	s.carry()
	neg := s.w[blockWords-1] < 0
	if neg {
		for k := s.lo; k < blockWords; k++ {
			s.w[k] = -s.w[k]
		}
		s.hi = blockWords
		s.carry()
	}
	sign := 1.0
	if neg {
		sign = -1
	}
	// Words 65 and 66 weigh 2^1006 and 2^1038: a digit there can exceed
	// the float64 range on its own (a block of huge values that dst's
	// opposite sign cancels), so they go in as 2^1023 pieces.
	top := s.w[blockWords-1]<<32 + s.w[blockWords-2]
	nonzero := top != 0
	for ; top >= 1<<17; top -= 1 << 17 {
		dst.Add(sign * 0x1p1023)
	}
	if top > 0 {
		dst.Add(sign * float64(top) * 0x1p1006)
	}
	for k := min(s.hi, blockWords-2) - 1; k >= s.lo; k-- {
		if d := s.w[k]; d != 0 {
			dst.Add(sign * float64(d) * blockScale[k])
			nonzero = true
		}
	}
	if !nonzero {
		dst.Add(0) // the values cancelled exactly: +0, as in IEEE addition
	}
	clear(s.w[s.lo:s.hi])
	s.lo, s.hi = 0, 0
	s.added, s.nonNegZero = false, false
}

// zeroSum is the IEEE sum of zeros: -0 only when none was +0.
func zeroSum(nonNegZero bool) float64 {
	if nonNegZero {
		return 0
	}
	return math.Copysign(0, -1)
}

// blockScale[k] is word k's weight, 2^(32k-1074); each is an exact
// float64, and so is a 32-bit digit times it.
var blockScale = func() (sc [blockWords - 2]float64) {
	for k := range sc {
		sc[k] = math.Ldexp(1, 32*k-1074)
	}
	return sc
}()
