package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// strconvAppendJSONFloat is AppendJSONFloat as it was before the
// Schubfach kernel, formatting every float with strconv: the oracle the
// kernel is held to.
func strconvAppendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("unsupported float value %v", f)
	}
	if i := int64(f); float64(i) == f && (i >= -1<<53 && i <= 1<<53) && !(i == 0 && math.Signbit(f)) {
		return strconv.AppendInt(b, i, 10), nil
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	n := len(b)
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json cleans up e-09 to e-9.
		if m := len(b); m-n >= 4 && b[m-4] == 'e' && b[m-3] == '-' && b[m-2] == '0' {
			b[m-2] = b[m-1]
			b = b[:m-1]
		}
	}
	return b, nil
}

// floatMatcher compares AppendJSONFloat with the oracle, reusing its
// buffers across values.
type floatMatcher struct {
	got, want []byte
	bad       int
}

func (m *floatMatcher) check(t testing.TB, f float64) {
	var gerr, werr error
	m.got, gerr = AppendJSONFloat(m.got[:0], f)
	m.want, werr = strconvAppendJSONFloat(m.want[:0], f)
	if (gerr != nil) != (werr != nil) || !bytes.Equal(m.got, m.want) {
		m.bad++
		if m.bad <= 20 {
			t.Errorf("%#016x (%v): got %q (err %v), want %q (err %v)",
				math.Float64bits(f), f, m.got, gerr, m.want, werr)
		}
	}
}

// withNeighbours returns f and the float64s either side of it.
func withNeighbours(f float64) []float64 {
	return []float64{math.Nextafter(f, math.Inf(-1)), f, math.Nextafter(f, math.Inf(1))}
}

// reportShapedFloats returns n values like the ones reports and job
// lines hold: fractions k/d with d ≤ 10^6, the CDF grid's 10^e steps,
// and running sums and means of lognormal task times.
func reportShapedFloats(rng *rand.Rand, n int) []float64 {
	fs := make([]float64, 0, n)
	var sum float64
	var tasks int
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			d := 1 + rng.Intn(1_000_000)
			fs = append(fs, float64(rng.Intn(d+1))/float64(d))
		case 1:
			e := float64(rng.Intn(40)-10) + float64(rng.Intn(10))/10
			fs = append(fs, math.Pow(10, e))
		default:
			if rng.Intn(50) == 0 { // a new job
				sum, tasks = 0, 0
			}
			sum += math.Exp(2 + 1.5*rng.NormFloat64())
			tasks++
			if i%4 == 2 {
				fs = append(fs, sum)
			} else {
				fs = append(fs, sum/float64(tasks))
			}
		}
	}
	return fs
}

// TestAppendJSONFloatMatchesStrconv holds the kernel to the strconv
// oracle byte for byte: on every exponent's edges, where Schubfach's
// interval and tie rules bite, on random bit patterns, and on the
// values reports and job lines hold.
func TestAppendJSONFloatMatchesStrconv(t *testing.T) {
	var m floatMatcher
	// ±0, subnormals, and 2^53 ± 2 around the integer fast path's edge.
	edges := []float64{0, math.SmallestNonzeroFloat64, 0x1p-1050, 0x1.23456789abcdep-1030}
	for i := -2; i <= 2; i++ {
		edges = append(edges, 1<<53+float64(i))
	}
	for e := -1074; e <= 1023; e++ {
		edges = append(edges, withNeighbours(math.Ldexp(1, e))...)
	}
	for p := -323; p <= 308; p++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(p), 64)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, withNeighbours(f)...)
	}
	// The 'f'/'e' switch points, the largest float and the smallest
	// normal.
	for _, f := range []float64{1e-6, 1e21, math.MaxFloat64, 0x1p-1022} {
		edges = append(edges, withNeighbours(f)...)
	}
	for _, f := range edges {
		m.check(t, f)
		m.check(t, -f)
	}

	rng := rand.New(rand.NewSource(1))
	random := 10_000_000
	if testing.Short() {
		random = 1_000_000
	}
	for i := 0; i < random; i++ {
		m.check(t, math.Float64frombits(rng.Uint64()))
	}

	// Report-shaped values: every k/n with n ≤ 1,000; the shared CDF
	// grid's x = 10^e, accumulated in tenths of a decade from every
	// starting decade as stats' logGrid does; and a random mix.
	for n := 1; n <= 1000; n++ {
		for k := 0; k <= n; k++ {
			m.check(t, float64(k)/float64(n))
		}
	}
	for lo := -324; lo <= 308; lo++ {
		e := float64(lo)
		for i := 0; i <= 240; i++ {
			m.check(t, math.Pow(10, e))
			e += 1.0 / 10
		}
	}
	for _, f := range reportShapedFloats(rng, 1_000_000) {
		m.check(t, f)
	}
	if m.bad > 0 {
		t.Fatalf("%d values differ from strconv", m.bad)
	}
}

// TestPow10TableMatchesBig recomputes every pow10s entry from its
// definition with math/big, and checks the kernel's three ⌊log⌋
// approximations over every exponent a normal float64 hands them.
func TestPow10TableMatchesBig(t *testing.T) {
	if want := 324 - pow10Min + 1; len(pow10s) != want {
		t.Fatalf("pow10s has %d entries, want %d", len(pow10s), want)
	}
	// ratPow returns base^e.
	ratPow := func(base int64, e int) *big.Rat {
		x := new(big.Int).Exp(big.NewInt(base), big.NewInt(int64(max(e, -e))), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), x)
		}
		return new(big.Rat).SetInt(x)
	}
	// within reports whether lo ≤ x < hi.
	within := func(x, lo, hi *big.Rat) bool { return lo.Cmp(x) <= 0 && x.Cmp(hi) < 0 }
	one := big.NewInt(1)
	mask := new(big.Int).Sub(new(big.Int).Lsh(one, 63), one)
	for i, g := range pow10s {
		p := pow10Min + i
		x := ratPow(10, p)
		r := floorLog2Pow10(p)
		if !within(x, ratPow(2, r), ratPow(2, r+1)) {
			t.Fatalf("floorLog2Pow10(%d) = %d", p, r)
		}
		// g = ⌊10^p / 2^(r-125)⌋ + 1, so 2^125 < g ≤ 2^126.
		beta := new(big.Rat).Quo(x, ratPow(2, r-125))
		want := new(big.Int).Quo(beta.Num(), beta.Denom())
		want.Add(want, one)
		w1, w0 := new(big.Int).Rsh(want, 63).Uint64(), new(big.Int).And(want, mask).Uint64()
		if g != [2]uint64{w1, w0} {
			t.Errorf("pow10s entry for 1e%d = {%#016x, %#016x}, want {%#016x, %#016x}", p, g[0], g[1], w1, w0)
		}
	}
	threeQuarters := big.NewRat(3, 4)
	for q := -1074; q <= 971; q++ {
		x := ratPow(2, q)
		if k := floorLog10Pow2(q); !within(x, ratPow(10, k), ratPow(10, k+1)) {
			t.Fatalf("floorLog10Pow2(%d) = %d", q, k)
		}
		x.Mul(x, threeQuarters)
		if k := floorLog10ThreeQuartersPow2(q); !within(x, ratPow(10, k), ratPow(10, k+1)) {
			t.Fatalf("floorLog10ThreeQuartersPow2(%d) = %d", q, k)
		}
	}
}

// FuzzAppendJSONFloat holds the kernel to the strconv oracle on
// arbitrary float64 bit patterns.
func FuzzAppendJSONFloat(f *testing.F) {
	// 2^-25 = 2.98023223876953125e-8 ties between two 17-digit
	// decimals, which random bits almost never do.
	for _, x := range []float64{0.1, 1e-7, 1e21, 1<<53 + 2, 0x1p-1022, math.MaxFloat64, 5e-324, 2.5e-8, 0x1p-25} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		var m floatMatcher
		m.check(t, math.Float64frombits(bits))
	})
}

// BenchmarkAppendJSONFloat times one float per op on report-shaped
// values: the strconv oracle against AppendJSONFloat's kernel.
func BenchmarkAppendJSONFloat(b *testing.B) {
	fs := reportShapedFloats(rand.New(rand.NewSource(7)), 1<<12)
	for _, bc := range []struct {
		name   string
		append func([]byte, float64) ([]byte, error)
	}{
		{"strconv", strconvAppendJSONFloat},
		{"schubfach", AppendJSONFloat},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var buf []byte
			var err error
			for i := 0; i < b.N; i++ {
				if buf, err = bc.append(buf[:0], fs[i&(len(fs)-1)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
