package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/binenc"
)

// TestExactSumEncodeExact: the decoded accumulator carries the exact
// value in canonical form — decoding and re-encoding gives the same
// bytes, with the same Sum(), and the same future behavior when more
// values are added after the round-trip.
func TestExactSumEncodeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s ExactSum
	for i := 0; i < 2000; i++ {
		s.Add(math.Ldexp(rng.Float64()-0.5, rng.Intn(120)-60))
	}

	enc := s.AppendBinary(nil)
	r := binenc.NewReader(enc)
	got := ReadExactSum(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", r.Remaining())
	}
	if !bytes.Equal(got.AppendBinary(nil), enc) {
		t.Fatal("decode then encode changed the bytes")
	}
	if s.Sum() != got.Sum() {
		t.Fatalf("sum drifted: %v vs %v", s.Sum(), got.Sum())
	}
	// Future adds behave identically.
	s.Add(1e-9)
	got.Add(1e-9)
	if s.Sum() != got.Sum() {
		t.Fatalf("post-round-trip add diverged: %v vs %v", s.Sum(), got.Sum())
	}
	if !bytes.Equal(s.AppendBinary(nil), got.AppendBinary(nil)) {
		t.Fatal("post-round-trip add encodes differently")
	}
}

// canonicalAgrees sums xs two ways — one Add at a time, and in groups
// (a new group after every i where cut[i] is set), each group through a
// BlockSum folded into its own ExactSum, the group sums merged in
// reverse order — and fails unless both encode to the same bytes within
// their EncodedSize, and decoding either and encoding again gives those
// bytes back. A sum that left the float64 range compares nothing.
func canonicalAgrees(t *testing.T, xs []float64, cut []bool) {
	t.Helper()
	var seq ExactSum
	var groups []ExactSum
	var blk BlockSum
	for i, x := range xs {
		seq.Add(x)
		blk.Add(x)
		if cut[i] || i == len(xs)-1 {
			groups = append(groups, ExactSum{})
			blk.FoldInto(&groups[len(groups)-1])
		}
	}
	if v := seq.Sum(); math.IsInf(v, 0) || math.IsNaN(v) {
		return
	}
	var merged ExactSum
	for k := len(groups) - 1; k >= 0; k-- {
		merged.Merge(&groups[k])
	}
	want := seq.AppendBinary(nil)
	for _, s := range []*ExactSum{&seq, &merged} {
		enc := s.AppendBinary(nil)
		if !bytes.Equal(enc, want) {
			t.Fatalf("sums of the same %d values encode differently:\n%x\n%x", len(xs), enc, want)
		}
		if len(enc) > s.EncodedSize() {
			t.Fatalf("encoded %d bytes, EncodedSize says at most %d", len(enc), s.EncodedSize())
		}
		r := binenc.NewReader(enc)
		dec := ReadExactSum(r)
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("decode: %v, %d bytes left", r.Err(), r.Remaining())
		}
		if again := dec.AppendBinary(nil); !bytes.Equal(again, enc) {
			t.Fatalf("decode then encode is not the identity:\n%x\n%x", again, enc)
		}
		if math.Float64bits(dec.Sum()) != math.Float64bits(seq.Sum()) {
			t.Fatalf("decoded sum %v, want %v", dec.Sum(), seq.Sum())
		}
	}
}

// TestExactSumCanonical: sums of the same values, added one by one or
// folded in random blocks and merged in reverse, encode to the same
// bytes, over subnormals to 2^950, signed zeros and exact cancellation.
func TestExactSumCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 2000; trial++ {
		elo := rng.Intn(1974)
		ehi := elo + rng.Intn(1974-elo)
		n := rng.Intn(200)
		xs := make([]float64, n)
		cut := make([]bool, n)
		for i := range xs {
			e := uint64(elo + rng.Intn(ehi-elo+1))
			xs[i] = math.Float64frombits(rng.Uint64()&(1<<52-1) | e<<52 | rng.Uint64()&(1<<63))
			switch rng.Intn(20) {
			case 0:
				xs[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			case 1:
				if i > 0 {
					xs[i] = -xs[rng.Intn(i)]
				}
			}
			cut[i] = rng.Intn(8) == 0
		}
		canonicalAgrees(t, xs, cut)
	}
}

// FuzzExactSumCanonical: arbitrary finite float64 bit patterns up to
// 2^950 in magnitude, each led by a byte whose low bit ends a block
// after it, encode to the same bytes summed one by one as folded in
// blocks and merged in reverse; decode then encode is the identity.
func FuzzExactSumCanonical(f *testing.F) {
	seed := func(xs ...float64) []byte {
		var b []byte
		for i, x := range xs {
			b = append(b, byte(i))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(1, 2.5, -3, 1e-310, 1e280))
	f.Add(seed(0.1, 0.2, 0.3, -0.6))
	f.Add(seed(math.Copysign(0, -1), 0, math.Copysign(0, -1)))
	f.Add(seed(1, 0x1p-53, 0x1p-106, -1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var xs []float64
		var cut []bool
		for ; len(data) >= 9; data = data[9:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
			if math.IsInf(x, 0) || math.IsNaN(x) || math.Abs(x) > 0x1p950 {
				continue
			}
			xs = append(xs, x)
			cut = append(cut, data[0]&1 == 1)
		}
		canonicalAgrees(t, xs, cut)
	})
}

func TestExactSumEncodeEmpty(t *testing.T) {
	var s ExactSum
	r := binenc.NewReader(s.AppendBinary(nil))
	got := ReadExactSum(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got.Sum() != 0 || len(got.partials) != 0 {
		t.Fatalf("empty sum round-trip: %+v", got)
	}
}

// TestQuantileSketchEncodeExact: a decoded sketch answers every
// Distribution query identically to the original.
func TestQuantileSketchEncodeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewQuantileSketch(0)
	for i := 0; i < 5000; i++ {
		s.Observe(math.Pow(10, rng.Float64()*12))
	}
	s.Observe(0) // zero bucket

	r := binenc.NewReader(s.AppendBinary(nil))
	got := ReadQuantileSketch(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", r.Remaining())
	}
	if got.Len() != s.Len() || got.Min() != s.Min() || got.Max() != s.Max() {
		t.Fatalf("len/min/max drifted: %d/%v/%v vs %d/%v/%v",
			got.Len(), got.Min(), got.Max(), s.Len(), s.Min(), s.Max())
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
		if a, b := s.Quantile(q), got.Quantile(q); a != b {
			t.Errorf("Quantile(%g): %v vs %v", q, a, b)
		}
	}
	for _, x := range []float64{0.5, 1, 100, 1e6, 1e11} {
		if a, b := s.P(x), got.P(x); a != b {
			t.Errorf("P(%g): %v vs %v", x, a, b)
		}
	}
	// And it still merges: layout survived.
	other := NewQuantileSketch(0)
	other.Observe(42)
	if err := got.Merge(other); err != nil {
		t.Fatalf("decoded sketch cannot merge: %v", err)
	}
}

func TestReadLogHistogramCorrupt(t *testing.T) {
	h := NewLogHistogram(8, 0, 4)
	h.Observe(123)
	b := h.AppendBinary(nil)
	r := binenc.NewReader(b[:len(b)-1])
	ReadLogHistogram(r)
	if r.Err() == nil {
		t.Error("truncated histogram decoded without error")
	}
}
