package stats

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// blockSumAgrees feeds xs to a reference ExactSum one Add at a time and
// to a BlockSum folded into a second ExactSum wherever fold[i] is set
// (and at the end), and reports whether the two Sums differ in any bit.
// A reference sum that left the float64 range compares nothing.
func blockSumAgrees(t *testing.T, xs []float64, fold []bool) {
	t.Helper()
	var ref, got ExactSum
	var blk BlockSum
	for i, x := range xs {
		ref.Add(x)
		blk.Add(x)
		if fold[i] {
			blk.FoldInto(&got)
		}
	}
	blk.FoldInto(&got)
	want := ref.Sum()
	if math.IsInf(want, 0) || math.IsNaN(want) {
		return
	}
	if g := got.Sum(); math.Float64bits(g) != math.Float64bits(want) {
		t.Fatalf("folded block sum %v (%#x), per-value ExactSum %v (%#x), over %d values",
			g, math.Float64bits(g), want, math.Float64bits(want), len(xs))
	}
	var again ExactSum
	blk.FoldInto(&again)
	if again.Sum() != 0 {
		t.Fatalf("a folded block still holds %v", again.Sum())
	}
}

// randFloat draws a finite float64 of either sign with its biased
// exponent uniform in [elo, ehi] (0 draws subnormals and zeros).
func randFloat(rng *rand.Rand, elo, ehi int) float64 {
	e := uint64(elo + rng.IntN(ehi-elo+1))
	b := rng.Uint64()&(1<<52-1) | e<<52 | rng.Uint64()&(1<<63)
	return math.Float64frombits(b)
}

// TestBlockSumMatchesExactSum: a block sum folded into an ExactSum,
// with folds mid-stream, gives Sum() bit-identical to per-value
// ExactSum.Add, over subnormals, both signs, exponents across the
// finite range, exact cancellations, and task-time-like values.
func TestBlockSumMatchesExactSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 7))
	for trial := 0; trial < 3000; trial++ {
		// Each trial draws from its own exponent band, so some stay
		// small and cancel, others span the whole range or hug its top.
		elo := rng.IntN(2047)
		ehi := elo + rng.IntN(2047-elo)
		n := rng.IntN(300)
		xs := make([]float64, 0, n)
		fold := make([]bool, 0, n)
		for i := 0; i < n; i++ {
			var x float64
			switch r := rng.IntN(10); {
			case r == 0 && i > 0:
				x = -xs[rng.IntN(i)] // an exact cancellation
			case r == 1:
				x = randFloat(rng, 0, 0)
			case r == 2:
				x = float64(rng.IntN(1e6)) * 0.125 // task seconds
			default:
				x = randFloat(rng, elo, ehi)
			}
			xs = append(xs, x)
			fold = append(fold, rng.IntN(20) == 0)
		}
		blockSumAgrees(t, xs, fold)
	}
	// The extremes: the largest finite value with a subnormal below it
	// (the top digit sits on the range's edge), its negation, and a
	// block of huge values the folded-into sum's opposite sign cancels.
	big := math.MaxFloat64
	tiny := math.SmallestNonzeroFloat64
	blockSumAgrees(t, []float64{big, -tiny}, []bool{false, false})
	blockSumAgrees(t, []float64{-big, tiny, tiny}, []bool{false, false, false})
	blockSumAgrees(t, []float64{-big, big, big}, []bool{true, false, false})
	blockSumAgrees(t, []float64{big, -big, -big, big / 2}, []bool{true, false, false, false})
}

// TestBlockSumCarries: more Adds than a word absorbs before its carries
// propagate still sum exactly.
func TestBlockSumCarries(t *testing.T) {
	var blk BlockSum
	blk.adds = blockAddLimit - 10
	var ref ExactSum
	x := math.Float64frombits(1<<52 - 1) // a subnormal with every bit set
	for i := 0; i < 100; i++ {
		blk.Add(x)
		ref.Add(x)
		blk.Add(-3.5)
		ref.Add(-3.5)
	}
	var got ExactSum
	blk.FoldInto(&got)
	if got.Sum() != ref.Sum() {
		t.Fatalf("sum across a carry %v, want %v", got.Sum(), ref.Sum())
	}
}

// FuzzBlockSum: arbitrary float64 bit patterns (non-finite ones
// skipped), each led by a byte whose low bit folds the block after it,
// sum the same through a BlockSum as through ExactSum.Add.
func FuzzBlockSum(f *testing.F) {
	seed := func(xs ...float64) []byte {
		var b []byte
		for i, x := range xs {
			b = append(b, byte(i))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(1, 2.5, -3, 1e-310, 1e300))
	f.Add(seed(math.MaxFloat64, -math.SmallestNonzeroFloat64))
	f.Add(seed(0.1, 0.2, 0.3, -0.6))
	f.Fuzz(func(t *testing.T, data []byte) {
		var xs []float64
		var fold []bool
		for ; len(data) >= 9; data = data[9:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
			if math.IsInf(x, 0) || math.IsNaN(x) {
				continue
			}
			xs = append(xs, x)
			fold = append(fold, data[0]&1 == 1)
		}
		blockSumAgrees(t, xs, fold)
	})
}
