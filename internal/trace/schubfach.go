package trace

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The shortest-digits kernel behind AppendJSONFloat, after R. Giulietti,
// "The Schubfach way to render doubles" (2020). A normal float64 is
// v = c·2^q with 2^52 ≤ c < 2^53. Its rounding interval Rv — every real
// that parses back to v — is v ± 2^(q-1), or v − 2^(q-2) … v + 2^(q-1)
// at a power of two, closed when c is even (round-half-even). The kernel
// picks k with 10^k ≤ |Rv| < 10^(k+1), so Rv holds at least one multiple
// of 10^k and at most one of 10^(k+1), and reads the candidates off
// three round-to-odd products of 4·c·2^q·10^-k against pow10s. The
// answer is strconv's: the shortest decimal in Rv, the closest to v when
// several share that length, and the even one on an exact tie.

// pow10Min is the power of ten of pow10s[0].
const pow10Min = -292

// appendShortest appends f, finite and of magnitude at least 2^-1022,
// in encoding/json's layout: 'f' form for |f| in [1e-6, 1e21), 'e' form
// otherwise with the exponent's leading zero dropped when negative.
func appendShortest(b []byte, f float64) []byte {
	fb := math.Float64bits(f)
	if fb>>63 != 0 {
		b = append(b, '-')
	}
	d, e := shortestDecimal(1<<52|fb&(1<<52-1), int(fb>>52&0x7ff)-1075)

	// d < 10^17, as text zero-padded to 17 digits: a digit, then two
	// eight-digit words whose byte i holds their i-th digit.
	hi, lo := eightDigits(uint32(d%1e16/1e8)), eightDigits(uint32(d%1e8))
	var text [17]byte
	text[0] = byte('0' + d/1e16)
	binary.LittleEndian.PutUint64(text[1:], hi|0x3030303030303030)
	binary.LittleEndian.PutUint64(text[9:], lo|0x3030303030303030)
	var n, zeros int // d's digit count and trailing zeros
	switch {
	case d >= 1e16:
		n = 17
	case hi != 0:
		n = 16 - bits.TrailingZeros64(hi)/8
	default:
		n = 8 - bits.TrailingZeros64(lo)/8
	}
	switch {
	case lo != 0:
		zeros = bits.LeadingZeros64(lo) / 8
	case hi != 0:
		zeros = 8 + bits.LeadingZeros64(hi)/8
	default:
		zeros = 16
	}
	digits := text[17-n : 17-zeros]
	dp := n + e // the value is 0.<digits> × 10^dp
	n -= zeros

	if abs := math.Float64frombits(fb &^ (1 << 63)); abs >= 1e-6 && abs < 1e21 {
		switch {
		case dp >= n: // an integer: the digits, then zeros
			b = append(b, digits...)
			return append(b, zeroText[:dp-n]...)
		case dp > 0: // the point falls inside the digits
			b = append(b, digits[:dp]...)
			b = append(b, '.')
			return append(b, digits[dp:]...)
		default: // "0.", -dp zeros, the digits
			b = append(b, "0."...)
			b = append(b, zeroText[:-dp]...)
			return append(b, digits...)
		}
	}
	b = append(b, digits[0])
	if n > 1 {
		b = append(b, '.')
		b = append(b, digits[1:]...)
	}
	// A positive exponent is at least 21; a negative one loses its
	// leading zero, as encoding/json writes it.
	exp := dp - 1
	if exp < 0 {
		b = append(b, 'e', '-')
		exp = -exp
	} else {
		b = append(b, 'e', '+')
	}
	if exp >= 100 {
		b = append(b, byte('0'+exp/100))
		exp %= 100
		return append(b, byte('0'+exp/10), byte('0'+exp%10))
	}
	if exp >= 10 {
		return append(b, byte('0'+exp/10), byte('0'+exp%10))
	}
	return append(b, byte('0'+exp))
}

// zeroText pads 'f' form: at most 20 zeros follow an integer's digits
// (|f| < 1e21), and at most 5 precede a fraction's (|f| ≥ 1e-6).
const zeroText = "00000000000000000000"

// eightDigits returns v < 10^8 as eight decimal digits, zero-padded, in
// the bytes of a word, most significant digit in the lowest byte. Each
// step splits every lane in two at once: v into two four-digit halves,
// each half into two pairs, each pair into two digits.
func eightDigits(v uint32) uint64 {
	x := uint64(v/10000) | uint64(v%10000)<<32
	y := x * 10486 >> 20 & 0x0000007f0000007f // x / 100 per 32-bit lane
	x = y | (x-y*100)<<16
	y = x * 103 >> 10 & 0x000f000f000f000f // x / 10 per 16-bit lane
	return y | (x-y*10)<<8
}

// shortestDecimal returns d and e such that d·10^e is the decimal
// strconv picks for c·2^q, a normal float64's significand and exponent.
// d < 10^17 and may end in zeros.
func shortestDecimal(c uint64, q int) (d uint64, e int) {
	out := c & 1 // an odd c's interval excludes its bounds
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == -1074 {
		cbl = cb - 2
		k = floorLog10Pow2(q)
	} else {
		// A power of two above the smallest normal: the interval's lower
		// half is half as wide.
		cbl = cb - 1
		k = floorLog10ThreeQuartersPow2(q)
	}
	h := uint(q + floorLog2Pow10(-k) + 2)
	g := &pow10s[-k-pow10Min]
	vb := roundToOdd(g, cb<<h)
	vbl := roundToOdd(g, cbl<<h)
	vbr := roundToOdd(g, cbr<<h)

	// vb, vbl and vbr are 4·10^-k times v and its interval's bounds,
	// rounded to odd, so comparing them with 4·s is exact.
	s := vb >> 2
	// The one multiple of 10^(k+1) in Rv, if there is one, is the
	// shortest decimal.
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	// Otherwise the multiples of 10^k that bracket v: the one in Rv, or
	// the closer when both are, and the even one on a tie.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// roundToOdd returns g·cp/2^127 rounded to odd — its floor, with the
// low bit set when the fraction is not zero — for g = g[0]·2^63 + g[1],
// a pow10s entry. The fraction is read to 63 bits; the paper shows the
// bits below cannot change the kernel's answer.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	sticky := (z&(1<<63-1) + (1<<63 - 1)) >> 63 // 1 iff z's low 63 bits are not all zero
	return y1 + z>>63 | sticky
}

// floorLog10Pow2 returns ⌊q·log10(2)⌋ for a float64 exponent q.
func floorLog10Pow2(q int) int { return int(int64(q) * 661_971_961_083 >> 41) }

// floorLog10ThreeQuartersPow2 returns ⌊log10(¾·2^q)⌋ for a float64
// exponent q.
func floorLog10ThreeQuartersPow2(q int) int {
	return int((int64(q)*661_971_961_083 - 274_743_187_321) >> 41)
}

// floorLog2Pow10 returns ⌊e·log2(10)⌋ for e in pow10s' range.
func floorLog2Pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }
