package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/units"
)

// Hand-rolled JSONL job codec. encoding/json's reflection walk dominated
// both generation (encode) and load (decode) once traces reached paper
// length, so the per-job hot path is a direct append-based encoder and a
// field-scanning decoder. The encoder emits byte-for-byte what
// encoding/json emits for the Job struct (same field order, omitempty,
// float formatting, string escaping), so files are indistinguishable from
// v1 files. The decoder fast-path handles exactly that canonical shape;
// any other valid JSON — unknown fields, escape sequences, reordered
// keys, whitespace — falls back to encoding/json for the line, so v1 and
// hand-edited files still load with identical semantics.

// JSONLWriter is a streaming Sink writing the native JSONL trace format.
// Close (or Flush) must be called after the last Write.
type JSONLWriter struct {
	bw    *bufio.Writer
	buf   []byte
	began bool
}

// NewJSONLWriter wraps w in a buffered JSONL trace writer.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{bw: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 512)}
}

// Begin writes the meta header line.
func (w *JSONLWriter) Begin(meta Meta) error {
	if w.began {
		return fmt.Errorf("trace: JSONLWriter.Begin called twice")
	}
	w.began = true
	hdr := jsonlHeader{
		Format:   jsonlFormat,
		Name:     meta.Name,
		Machines: meta.Machines,
		Start:    meta.Start.UnixMilli(),
		LengthMS: meta.Length.Milliseconds(),
	}
	// The header is one line per file; encoding/json is fine here and
	// keeps the emitted bytes identical to the v1 writer.
	b, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	if _, err := w.bw.Write(b); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	return w.bw.WriteByte('\n')
}

// Write appends one job record line.
func (w *JSONLWriter) Write(j *Job) error {
	if !w.began {
		return fmt.Errorf("trace: JSONLWriter.Write before Begin")
	}
	b, err := appendJob(w.buf[:0], j)
	if err != nil {
		return fmt.Errorf("trace: writing job %d: %w", j.ID, err)
	}
	w.buf = b[:0]
	if _, err := w.bw.Write(b); err != nil {
		return fmt.Errorf("trace: writing job %d: %w", j.ID, err)
	}
	return nil
}

// Close flushes buffered output. It does not close the underlying writer.
func (w *JSONLWriter) Close() error { return w.bw.Flush() }

// JSONLReader is a streaming Source reading the native JSONL trace
// format. Lines may be arbitrarily long: the reader grows its line buffer
// as needed instead of imposing bufio.Scanner's fixed token limit.
type JSONLReader struct {
	br   *bufio.Reader
	meta Meta
	buf  []byte
	line int
}

// NewJSONLReader reads and validates the header line and returns a
// Source positioned at the first job record.
func NewJSONLReader(r io.Reader) (*JSONLReader, error) {
	jr := &JSONLReader{br: bufio.NewReaderSize(r, 1<<16), buf: make([]byte, 0, 512)}
	b, err := readLine(jr.br, jr.buf)
	if err == io.EOF {
		return nil, fmt.Errorf("trace: empty input")
	}
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	jr.buf = b
	jr.line = 1
	var hdr jsonlHeader
	if err := json.Unmarshal(b, &hdr); err != nil {
		return nil, fmt.Errorf("trace: parsing header: %w", err)
	}
	if hdr.Format != jsonlFormat {
		return nil, fmt.Errorf("trace: unknown format %q", hdr.Format)
	}
	jr.meta = Meta{
		Name:     hdr.Name,
		Machines: hdr.Machines,
		Start:    time.UnixMilli(hdr.Start).UTC(),
		Length:   time.Duration(hdr.LengthMS) * time.Millisecond,
	}
	return jr, nil
}

// NewJSONLBodyReader returns a Source over headerless job-record lines
// with caller-supplied metadata — the segment files of the durable
// storage engine, which keep the Table-1 metadata in the per-trace
// manifest instead of repeating a header line per segment.
func NewJSONLBodyReader(r io.Reader, meta Meta) *JSONLReader {
	return &JSONLReader{br: bufio.NewReaderSize(r, 1<<16), buf: make([]byte, 0, 512), meta: meta}
}

// Meta returns the header metadata.
func (r *JSONLReader) Meta() Meta { return r.meta }

// Next decodes the next job record, skipping blank lines, or returns
// io.EOF at end of input.
func (r *JSONLReader) Next() (*Job, error) {
	for {
		b, err := readLine(r.br, r.buf)
		if err == io.EOF {
			return nil, io.EOF
		}
		if err != nil {
			return nil, fmt.Errorf("trace: scanning: %w", err)
		}
		r.buf = b
		r.line++
		if len(b) == 0 {
			continue
		}
		j := new(Job)
		if !parseJob(b, j) {
			// Non-canonical line: let encoding/json decide, so unknown
			// fields are tolerated and malformed input gets the
			// standard library's error text.
			*j = Job{}
			if uerr := json.Unmarshal(b, j); uerr != nil {
				return nil, fmt.Errorf("trace: line %d: %w", r.line, uerr)
			}
		}
		return j, nil
	}
}

// readLine returns the next newline-terminated line (newline and any
// trailing \r stripped), reusing buf's capacity. There is no line-length
// cap: fragments are accumulated across bufio fills, which is what lets
// jobs with multi-megabyte path or name strings round-trip (the previous
// bufio.Scanner implementation failed at 4 MiB with an opaque
// "token too long"). Returns io.EOF only when no bytes remain.
func readLine(br *bufio.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		switch err {
		case nil:
			buf = buf[:len(buf)-1] // strip '\n'
			if n := len(buf); n > 0 && buf[n-1] == '\r' {
				buf = buf[:n-1]
			}
			return buf, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(buf) == 0 {
				return buf, io.EOF
			}
			return buf, nil // final line without trailing newline
		default:
			return buf, err
		}
	}
}

// AppendJobLine appends the canonical JSONL encoding of j to b — the
// exact bytes JSONLWriter and the fingerprint Hasher produce per job,
// newline included. The durable storage engine writes segment files
// through it so segment bytes are the canonical representation (and so
// segment CRCs are stable across writers).
func AppendJobLine(b []byte, j *Job) ([]byte, error) {
	return appendJob(b, j)
}

// appendJob appends the canonical JSONL encoding of j — exactly the bytes
// encoding/json produces for the Job struct, newline-terminated, except
// that a backspace or form feed in a string is written \u0008 or \u000c
// (see appendJobString).
func appendJob(b []byte, j *Job) ([]byte, error) {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, j.ID, 10)
	if j.Name != "" {
		b = append(b, `,"name":`...)
		b = appendJobString(b, j.Name)
	}
	b = append(b, `,"submit_time":`...)
	var err error
	b, err = appendJSONTime(b, j.SubmitTime)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"duration":`...)
	b = strconv.AppendInt(b, int64(j.Duration), 10)
	b = append(b, `,"input_bytes":`...)
	b = strconv.AppendInt(b, int64(j.InputBytes), 10)
	b = append(b, `,"shuffle_bytes":`...)
	b = strconv.AppendInt(b, int64(j.ShuffleBytes), 10)
	b = append(b, `,"output_bytes":`...)
	b = strconv.AppendInt(b, int64(j.OutputBytes), 10)
	b = append(b, `,"map_time":`...)
	b, err = AppendJSONFloat(b, float64(j.MapTime))
	if err != nil {
		return nil, err
	}
	b = append(b, `,"reduce_time":`...)
	b, err = AppendJSONFloat(b, float64(j.ReduceTime))
	if err != nil {
		return nil, err
	}
	b = append(b, `,"map_tasks":`...)
	b = strconv.AppendInt(b, int64(j.MapTasks), 10)
	b = append(b, `,"reduce_tasks":`...)
	b = strconv.AppendInt(b, int64(j.ReduceTasks), 10)
	if j.InputPath != "" {
		b = append(b, `,"input_path":`...)
		b = appendJobString(b, j.InputPath)
	}
	if j.OutputPath != "" {
		b = append(b, `,"output_path":`...)
		b = appendJobString(b, j.OutputPath)
	}
	b = append(b, '}', '\n')
	return b, nil
}

// appendJSONTime appends the RFC3339Nano-quoted encoding time.Time
// marshals to, enforcing the same year range. UTC times — every
// generated trace — take a direct formatting path; other zones fall back
// to time.AppendFormat.
func appendJSONTime(b []byte, t time.Time) ([]byte, error) {
	year, month, day := t.Date()
	if year < 0 || year >= 10000 {
		// Matches time.Time.MarshalJSON: RFC 3339 is clear that years
		// are 4 digits exactly.
		return nil, fmt.Errorf("year outside of range [0,9999]")
	}
	b = append(b, '"')
	if t.Location() != time.UTC {
		b = t.AppendFormat(b, time.RFC3339Nano)
		return append(b, '"'), nil
	}
	hour, min, sec := t.Clock()
	b = append4Digits(b, year)
	b = append(b, '-')
	b = append2Digits(b, int(month))
	b = append(b, '-')
	b = append2Digits(b, day)
	b = append(b, 'T')
	b = append2Digits(b, hour)
	b = append(b, ':')
	b = append2Digits(b, min)
	b = append(b, ':')
	b = append2Digits(b, sec)
	if ns := t.Nanosecond(); ns != 0 {
		// RFC3339Nano trims trailing fractional zeros.
		b = append(b, '.')
		var digits [9]byte
		for i := 8; i >= 0; i-- {
			digits[i] = byte('0' + ns%10)
			ns /= 10
		}
		n := 9
		for digits[n-1] == '0' {
			n--
		}
		b = append(b, digits[:n]...)
	}
	return append(b, 'Z', '"'), nil
}

func append2Digits(b []byte, v int) []byte {
	return append(b, byte('0'+v/10), byte('0'+v%10))
}

func append4Digits(b []byte, v int) []byte {
	return append(b, byte('0'+v/1000), byte('0'+v/100%10), byte('0'+v/10%10), byte('0'+v%10))
}

// AppendJSONFloat appends a float64 with encoding/json's exact formatting
// rules (shortest representation, 'e' form outside [1e-6, 1e21), with the
// two-digit negative exponent contraction). NaN and ±Inf are errors, as
// they are for json.Marshal. The job codec and core's report encoder
// both format their floats here; every normal float but an integer of
// magnitude at most 2^53 takes the Schubfach kernel (schubfach.go).
func AppendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("unsupported float value %v", f)
	}
	// An integer of magnitude at most 2^53 is its own shortest
	// representation, and 'f' form prints it as a plain digit run; skip
	// the kernel for it.
	if i := int64(f); float64(i) == f && (i >= -1<<53 && i <= 1<<53) && !(i == 0 && math.Signbit(f)) {
		return strconv.AppendInt(b, i, 10), nil
	}
	if math.Abs(f) >= 0x1p-1022 {
		return appendShortest(b, f), nil
	}
	// −0 and subnormals, which no report value or job line holds, keep
	// strconv's formatting; a subnormal's exponent has three digits, so
	// encoding/json's e-0x contraction never applies.
	if f == 0 {
		return append(b, "-0"...), nil
	}
	return strconv.AppendFloat(b, f, 'e', -1, 64), nil
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks ASCII bytes that pass through the HTML-escaping encoder
// unmodified: printable characters except `"` `\` `<` `>` `&`.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return
}()

// AppendJSONString appends a quoted, escaped string exactly as
// encoding/json writes it, with its default (HTML-escaping) rules:
// printable ASCII except `"` `\` `<` `>` `&` passes through, \n \r \t
// \b \f use short escapes, other control bytes and the HTML characters
// become \u00xx, U+2028/U+2029 are escaped, and invalid UTF-8 becomes
// \ufffd. Core's report encoder writes its strings here.
func AppendJSONString(b []byte, s string) []byte { return appendJSONString(b, s, true) }

// appendJobString is AppendJSONString for the canonical job line, which
// writes a backspace or form feed as \u0008 or \u000c: encoding/json's
// form before Go 1.22 switched it to \b and \f. Every trace's
// fingerprint hashes that line, so it keeps the bytes committed traces
// were hashed with.
func appendJobString(b []byte, s string) []byte { return appendJSONString(b, s, false) }

// appendJSONString appends s quoted and escaped, writing a backspace or
// form feed as \b or \f when short is set and as \u00xx otherwise.
func appendJSONString(b []byte, s string, short bool) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			case '\b':
				if short {
					b = append(b, '\\', 'b')
				} else {
					b = append(b, `\u0008`...)
				}
			case '\f':
				if short {
					b = append(b, '\\', 'f')
				} else {
					b = append(b, `\u000c`...)
				}
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// parseJob decodes one canonical job line — the exact shape appendJob
// emits — into j. It reports false (leaving j in an undefined state) for
// anything else: unknown fields, escape sequences, whitespace, null,
// non-canonical numbers. Callers then retry with encoding/json so the
// semantics of unusual-but-valid input match the standard library.
func parseJob(line []byte, j *Job) bool {
	i := 0
	if len(line) == 0 || line[i] != '{' {
		return false
	}
	i++
	first := true
	for {
		if i >= len(line) {
			return false
		}
		if line[i] == '}' {
			return i+1 == len(line)
		}
		if !first {
			if line[i] != ',' {
				return false
			}
			i++
		}
		first = false
		key, n := scanKey(line[i:])
		if n == 0 {
			return false
		}
		i += n
		var ok bool
		switch string(key) {
		case "id":
			j.ID, i, ok = scanInt(line, i)
		case "name":
			j.Name, i, ok = scanString(line, i)
		case "submit_time":
			var s string
			s, i, ok = scanString(line, i)
			if ok {
				var err error
				j.SubmitTime, err = time.Parse(time.RFC3339Nano, s)
				ok = err == nil
			}
		case "duration":
			var v int64
			v, i, ok = scanInt(line, i)
			j.Duration = time.Duration(v)
		case "input_bytes":
			var v int64
			v, i, ok = scanInt(line, i)
			j.InputBytes = units.Bytes(v)
		case "shuffle_bytes":
			var v int64
			v, i, ok = scanInt(line, i)
			j.ShuffleBytes = units.Bytes(v)
		case "output_bytes":
			var v int64
			v, i, ok = scanInt(line, i)
			j.OutputBytes = units.Bytes(v)
		case "map_time":
			var v float64
			v, i, ok = scanFloat(line, i)
			j.MapTime = units.TaskSeconds(v)
		case "reduce_time":
			var v float64
			v, i, ok = scanFloat(line, i)
			j.ReduceTime = units.TaskSeconds(v)
		case "map_tasks":
			var v int64
			v, i, ok = scanInt(line, i)
			if v > math.MaxInt32 || v < math.MinInt32 {
				// Be conservative about platform int width.
				ok = false
			}
			j.MapTasks = int(v)
		case "reduce_tasks":
			var v int64
			v, i, ok = scanInt(line, i)
			if v > math.MaxInt32 || v < math.MinInt32 {
				ok = false
			}
			j.ReduceTasks = int(v)
		case "input_path":
			j.InputPath, i, ok = scanString(line, i)
		case "output_path":
			j.OutputPath, i, ok = scanString(line, i)
		default:
			return false
		}
		if !ok {
			return false
		}
	}
}

// scanKey matches `"key":` with no escapes and returns the key bytes and
// the number of bytes consumed (0 on mismatch).
func scanKey(b []byte) (key []byte, n int) {
	if len(b) == 0 || b[0] != '"' {
		return nil, 0
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			if i+1 >= len(b) || b[i+1] != ':' {
				return nil, 0
			}
			return b[1:i], i + 2
		case c == '\\' || c < 0x20:
			return nil, 0
		}
	}
	return nil, 0
}

// scanTokenEnd returns the index of the byte ending a number token: the
// next ',' or '}' at this nesting level (numbers contain neither).
func scanTokenEnd(line []byte, i int) int {
	for ; i < len(line); i++ {
		if line[i] == ',' || line[i] == '}' {
			return i
		}
	}
	return i
}

// scanInt parses a canonical JSON integer at line[i:], returning the
// value and the index past the token.
func scanInt(line []byte, i int) (int64, int, bool) {
	end := scanTokenEnd(line, i)
	tok := line[i:end]
	if len(tok) == 0 {
		return 0, end, false
	}
	neg := false
	k := 0
	if tok[0] == '-' {
		neg = true
		k = 1
		if len(tok) == 1 {
			return 0, end, false
		}
	}
	if tok[k] == '0' && len(tok) > k+1 {
		return 0, end, false // leading zeros are not canonical
	}
	var v uint64
	for ; k < len(tok); k++ {
		c := tok[k]
		if c < '0' || c > '9' {
			return 0, end, false
		}
		if v > (math.MaxUint64-9)/10 {
			return 0, end, false
		}
		v = v*10 + uint64(c-'0')
	}
	if neg {
		if v > uint64(math.MaxInt64)+1 {
			return 0, end, false
		}
		return -int64(v), end, true
	}
	if v > math.MaxInt64 {
		return 0, end, false
	}
	return int64(v), end, true
}

// scanFloat parses a JSON number at line[i:]. The token must satisfy the
// JSON number grammar (so strconv extensions like hex floats, "Inf", and
// "NaN" never sneak past encoding/json semantics).
func scanFloat(line []byte, i int) (float64, int, bool) {
	end := scanTokenEnd(line, i)
	tok := line[i:end]
	if !validJSONNumber(tok) {
		return 0, end, false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, end, false
	}
	return v, end, true
}

// validJSONNumber reports whether tok matches RFC 8259's number grammar.
func validJSONNumber(tok []byte) bool {
	i := 0
	if i < len(tok) && tok[i] == '-' {
		i++
	}
	// Integer part: "0" or [1-9][0-9]*.
	switch {
	case i < len(tok) && tok[i] == '0':
		i++
	case i < len(tok) && tok[i] >= '1' && tok[i] <= '9':
		for i < len(tok) && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	default:
		return false
	}
	if i < len(tok) && tok[i] == '.' {
		i++
		if i >= len(tok) || tok[i] < '0' || tok[i] > '9' {
			return false
		}
		for i < len(tok) && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	}
	if i < len(tok) && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
			i++
		}
		if i >= len(tok) || tok[i] < '0' || tok[i] > '9' {
			return false
		}
		for i < len(tok) && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	}
	return i == len(tok)
}

// scanString parses a canonical (escape-free, valid-UTF-8) JSON string at
// line[i:]. Strings containing backslashes, control bytes, or invalid
// UTF-8 are routed to the encoding/json fallback, which owns the
// unescaping and sanitization semantics.
func scanString(line []byte, i int) (string, int, bool) {
	if i >= len(line) || line[i] != '"' {
		return "", i, false
	}
	for k := i + 1; k < len(line); k++ {
		switch c := line[k]; {
		case c == '"':
			content := line[i+1 : k]
			if !utf8.Valid(content) {
				return "", i, false
			}
			return string(content), k + 1, true
		case c == '\\' || c < 0x20:
			return "", i, false
		}
	}
	return "", i, false
}
