package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one persistent HTTP/1.1 connection with a minimal,
// allocation-light client: the load generator must not spend the CPU
// (or trigger the collections) that net/http's client would on the two
// cores it shares with swimd.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	body []byte
}

// response is the part of an HTTP response the benchmark checks. body
// aliases the connection's buffer and is valid until the next request.
type response struct {
	status   int
	cache    string // X-Cache
	analysis string // X-Analysis
	scan     scanHeaders
	body     []byte
}

// scanHeaders are the X-Scan-* pruning counters of an out-of-core read.
type scanHeaders struct {
	present                  bool
	segments, segmentsPruned int64
	blocks, blocksPruned     int64
}

func dial(addr string) (*conn, error) {
	c := &conn{addr: addr}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *conn) redial() error {
	if c.c != nil {
		c.c.Close()
	}
	nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return err
	}
	c.c = nc
	c.br = bufio.NewReaderSize(nc, 64<<10)
	c.bw = bufio.NewWriterSize(nc, 64<<10)
	return nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and reads the whole response into resp. A
// transport error leaves the connection redialed for the next request.
func (c *conn) do(method, target string, body []byte, resp *response) error {
	c.write(method, target, body)
	err := c.flush()
	if err == nil {
		err = c.read(resp)
	}
	return err
}

// write buffers one request; flush sends every buffered request, so
// several can be pipelined on the connection and their responses read
// back in order with read.
func (c *conn) write(method, target string, body []byte) {
	bw := c.bw
	bw.WriteString(method)
	bw.WriteByte(' ')
	bw.WriteString(target)
	bw.WriteString(" HTTP/1.1\r\nHost: swimd\r\n")
	if body != nil {
		bw.WriteString("Content-Type: application/x-ndjson\r\nContent-Length: ")
		bw.WriteString(strconv.Itoa(len(body)))
		bw.WriteString("\r\n")
	}
	bw.WriteString("\r\n")
	bw.Write(body)
}

func (c *conn) flush() error {
	if c.c == nil {
		return errors.New("connection closed")
	}
	return c.recover(c.bw.Flush())
}

func (c *conn) read(resp *response) error {
	if c.c == nil {
		return errors.New("connection closed")
	}
	return c.recover(c.readResponse(resp))
}

// recover redials after a transport error, so the next request gets a
// fresh connection (responses still in flight on the old one are lost).
func (c *conn) recover(err error) error {
	if err != nil {
		if rerr := c.redial(); rerr != nil {
			return fmt.Errorf("%v (redial: %v)", err, rerr)
		}
	}
	return err
}

var (
	hdrContentLength = []byte("Content-Length")
	hdrTransferEnc   = []byte("Transfer-Encoding")
	hdrCache         = []byte("X-Cache")
	hdrAnalysis      = []byte("X-Analysis")
	hdrSegments      = []byte("X-Scan-Segments")
	hdrSegsPruned    = []byte("X-Scan-Segments-Pruned")
	hdrBlocks        = []byte("X-Scan-Blocks")
	hdrBlocksPruned  = []byte("X-Scan-Blocks-Pruned")
)

func (c *conn) readResponse(resp *response) error {
	*resp = response{}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return fmt.Errorf("malformed status line %q", line)
	}
	resp.status = status
	length, chunked := -1, false
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return fmt.Errorf("malformed header %q", line)
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, hdrContentLength):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return fmt.Errorf("malformed Content-Length %q", v)
			}
		case bytes.EqualFold(k, hdrTransferEnc):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, hdrCache):
			resp.cache = intern(v)
		case bytes.EqualFold(k, hdrAnalysis):
			resp.analysis = intern(v)
		case bytes.EqualFold(k, hdrSegments):
			resp.scan.present = true
			resp.scan.segments = atoi64(v)
		case bytes.EqualFold(k, hdrSegsPruned):
			resp.scan.segmentsPruned = atoi64(v)
		case bytes.EqualFold(k, hdrBlocks):
			resp.scan.blocks = atoi64(v)
		case bytes.EqualFold(k, hdrBlocksPruned):
			resp.scan.blocksPruned = atoi64(v)
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case length >= 0:
		c.body = grow(c.body, length)
		_, err = io.ReadFull(c.br, c.body)
	default:
		err = errors.New("response has neither Content-Length nor chunked encoding")
	}
	resp.body = c.body
	return err
}

func (c *conn) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		size, err := strconv.ParseInt(string(line), 16, 64)
		if err != nil || size < 0 {
			return fmt.Errorf("malformed chunk size %q", line)
		}
		if size == 0 {
			// Trailer section: header lines up to the blank line.
			for {
				line, err := c.br.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return nil
				}
			}
		}
		n := len(c.body)
		c.body = grow(c.body, n+int(size))
		if _, err := io.ReadFull(c.br, c.body[n:]); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil {
			return err
		}
	}
}

// grow returns b resized to n bytes, reallocating only when its
// capacity is short.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	nb := make([]byte, n, n+n/2)
	copy(nb, b)
	return nb
}

// intern returns the header values the benchmark checks without
// allocating (the load generator must not wake the collector).
func intern(v []byte) string {
	switch string(v) {
	case "HIT":
		return "HIT"
	case "MISS":
		return "MISS"
	case "ingest-partial":
		return "ingest-partial"
	case "window-disk-scan":
		return "window-disk-scan"
	case "window-scan":
		return "window-scan"
	case "scan":
		return "scan"
	}
	return string(v)
}

func atoi64(b []byte) int64 {
	n, _ := strconv.ParseInt(string(b), 10, 64)
	return n
}
