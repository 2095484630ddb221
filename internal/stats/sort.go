package stats

import (
	"math"
	"slices"
)

// radixCutoff is the length from which SortFloats radix-sorts. Below it
// slices.Sort wins: BenchmarkSortFloats over Figure 1 byte sizes on a
// 2-vCPU Intel Xeon @ 2.10GHz read slices.Sort 26 µs against radix
// 40 µs at 1,024 values, then radix 94 µs against 123 µs at 2,048 and
// 164 µs against 288 µs at 4,096.
const radixCutoff = 2048

// negZero is the bit pattern of −0.
const negZero = 1 << 63

// SortFloats sorts s ascending in place and leaves exactly the bits
// slices.Sort leaves. From radixCutoff values on it runs an LSD radix
// sort over the values' bit patterns, which costs O(n) per distinct
// byte instead of O(n log n) comparisons; a sample holding a NaN or a
// −0, whose place slices.Sort fixes by comparison rather than by bits,
// falls back to slices.Sort.
func SortFloats(s []float64) {
	if len(s) < radixCutoff || !radixSort(s) {
		slices.Sort(s)
	}
}

// radixKey maps a float64's bits to a key whose unsigned order is the
// values' numeric order: a positive value's sign bit is set, and a
// negative value's bits are all flipped, so larger magnitudes sort
// first among negatives. radixValue inverts it.
func radixKey(b uint64) uint64 { return b ^ (uint64(int64(b)>>63) | 1<<63) }

func radixValue(k uint64) uint64 { return k ^ (uint64(int64(^k)>>63) | 1<<63) }

// radixSort sorts s by its radixKeys, least significant byte first,
// through one len(s)-sized scratch buffer, and reports true. Equal keys
// are equal bits, so the result is the only ascending arrangement of
// s's bits. The counting pass rewrites each value as its key's bits,
// which the passes then move without converting, and fills all eight
// byte histograms at once; a byte every key shares costs no pass. A
// NaN or a −0 in s leaves s as it was and reports false.
func radixSort(s []float64) bool {
	if len(s) < 2 {
		return true
	}
	if uint64(len(s)) > math.MaxUint32 {
		return false
	}
	var counts [8][256]uint32
	for i, v := range s {
		b := math.Float64bits(v)
		if v != v || b == negZero {
			for j := range s[:i] {
				s[j] = math.Float64frombits(radixValue(math.Float64bits(s[j])))
			}
			return false
		}
		k := radixKey(b)
		s[i] = math.Float64frombits(k)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	first := math.Float64bits(s[0])
	src, dst := s, []float64(nil)
	for d := range counts {
		shift := 8 * uint(d)
		c := &counts[d]
		if int(c[byte(first>>shift)]) == len(s) {
			continue
		}
		if dst == nil {
			dst = make([]float64, len(s))
		}
		var sum uint32
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, v := range src {
			b := byte(math.Float64bits(v) >> shift)
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	for i, v := range src {
		s[i] = math.Float64frombits(radixValue(math.Float64bits(v)))
	}
	return true
}
