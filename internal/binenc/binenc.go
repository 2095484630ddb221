// Package binenc is the small binary wire kit behind the durable
// snapshot formats (core.Partial on disk). Writers append to a byte
// slice with the Append* functions; readers decode through a Reader
// with one sticky error, so decode code stays a straight line of typed
// reads followed by a single Err() check.
//
// The encoding is deliberately dumb: uvarint/zigzag-varint integers,
// fixed 8-byte little-endian IEEE-754 floats (bit-exact round-trips —
// the exact-sum accumulators depend on it), and length-prefixed byte
// strings. Versioning, magic numbers, and checksums belong to the
// formats built on top, not here.
package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MaxVarintLen is the most bytes AppendUvarint or AppendVarint appends,
// for encoders that bound their output before appending.
const MaxVarintLen = binary.MaxVarintLen64

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v as a zigzag varint.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendFloat64 appends the 8-byte little-endian IEEE-754 bits of f.
// Every float64 value round-trips bit-for-bit, including negative zero
// (NaN payloads too, though the analyses never store them).
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendFloat64s appends every value of fs as AppendFloat64 does, for
// the wide sample columns of a snapshot.
func AppendFloat64s(b []byte, fs []float64) []byte {
	off := len(b)
	b = append(b, make([]byte, 8*len(fs))...)
	for i, f := range fs {
		binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(f))
	}
	return b
}

// AppendUint64 appends v as fixed 8-byte little-endian. Wide values
// (byte counts, nanosecond durations) cost 5-10 varint bytes and a
// data-dependent decode loop; fixed width trades at most three bytes
// for a single-load decode in scan-critical columns.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendUint32 appends v as fixed 4-byte little-endian, for values a
// format bounds below 2^32 (sub-second nanoseconds) whose distribution
// is uniform enough that varints average wider than four bytes.
func AppendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendString appends a uvarint length prefix followed by the raw
// bytes of s.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends one byte: 1 for true, 0 for false.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader decodes a byte slice written with the Append* functions. The
// first malformed read latches an error; every subsequent read returns
// a zero value, so callers check Err() once at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. The slice is not copied; the
// caller must not mutate it while decoding.
func NewReader(b []byte) *Reader {
	return &Reader{b: b}
}

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("binenc: offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated or oversized uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint decodes a zigzag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated or oversized varint")
		return 0
	}
	r.off += n
	return v
}

// Float64 decodes a fixed 8-byte little-endian float.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// Float64s decodes len(dst) fixed 8-byte little-endian floats into dst.
func (r *Reader) Float64s(dst []float64) {
	if r.err != nil {
		return
	}
	if r.Remaining()/8 < len(dst) {
		r.fail("truncated float64 run of %d", len(dst))
		return
	}
	src := r.b[r.off : r.off+8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	r.off += 8 * len(dst)
}

// Uint64 decodes a fixed 8-byte little-endian unsigned integer.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail("truncated uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Uint32 decodes a fixed 4-byte little-endian unsigned integer.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 4 {
		r.fail("truncated uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// String decodes a length-prefixed string. The length is validated
// against the remaining input before allocating, so a corrupt prefix
// cannot demand an absurd allocation.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Remaining()) {
		r.fail("string length %d exceeds remaining %d bytes", n, r.Remaining())
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Bool decodes one byte as a boolean; any value other than 0 or 1 is
// malformed (it would mean the stream is misaligned).
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.Remaining() < 1 {
		r.fail("truncated bool")
		return false
	}
	c := r.b[r.off]
	if c > 1 {
		r.fail("invalid bool byte 0x%02x", c)
		return false
	}
	r.off++
	return c == 1
}

// Count decodes a uvarint that callers will use as an element count for
// a slice of elemSize-byte-minimum elements, validating it against the
// remaining input so corrupt counts fail instead of allocating.
func (r *Reader) Count(elemSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(r.Remaining()/elemSize) {
		r.fail("count %d exceeds remaining input (%d bytes, >=%d each)", n, r.Remaining(), elemSize)
		return 0
	}
	return int(n)
}
