// Package wire holds the primitives behind rnlpd's request hop that client
// and internal/service share: pooled body buffers, a bounded body read, and
// the JSON append/scan helpers of the hand-written codecs for the four hot
// messages (AcquireRequest, GrantInfo, ReleaseRequest and the empty reply;
// client/codec.go encodes requests and decodes grants, service/codec.go the
// reverse).
//
// The codecs are accelerators, not a second format. Encoders emit exactly the
// bytes encoding/json would. Decoders accept only the plain subset
// encoding/json itself emits for these messages — exact field names, each at
// most once, no escapes, no nulls — and report failure on anything else, so
// the caller falls back to encoding/json on the same bytes and every input
// decodes, or fails to, exactly as before.
package wire

import (
	"encoding/json"
	"io"
	"sync"
)

// maxPooled is the largest buffer PutBuf keeps: an occasional huge body must
// not pin its memory in the pool.
const maxPooled = 64 << 10

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuf returns an empty buffer from the pool.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a buffer to the pool. Nothing decoded from it may still
// reference its bytes.
func PutBuf(b *[]byte) {
	if cap(*b) <= maxPooled {
		bufPool.Put(b)
	}
}

// ReadLimited appends r to b until EOF or until limit bytes have been read,
// whichever comes first: the pooled-buffer form of
// io.ReadAll(io.LimitReader(r, limit)).
func ReadLimited(r io.Reader, b []byte, limit int) ([]byte, error) {
	start := len(b)
	for len(b)-start < limit {
		if len(b) == cap(b) {
			b = append(b, make([]byte, 512)...)[:len(b)]
		}
		room := b[len(b):cap(b)]
		if max := limit - (len(b) - start); len(room) > max {
			room = room[:max]
		}
		n, err := r.Read(room)
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

// AppendString appends s as a JSON string, byte for byte as encoding/json
// does. IDs, handles and node names are plain ASCII and are copied; anything
// that could need escaping goes through encoding/json itself.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Dec scans one JSON document for a hand-written decoder. A failed
// expectation is sticky: every later call is a no-op returning a zero value,
// and OK reports false, so a decoder checks once, at the end.
type Dec struct {
	b   []byte
	i   int
	bad bool
}

// NewDec starts a scan of b.
func NewDec(b []byte) Dec { return Dec{b: b} }

// Fail marks the document as outside the subset the decoder handles.
func (d *Dec) Fail() { d.bad = true }

// OK reports whether every expectation held and only white space follows the
// value scanned.
func (d *Dec) OK() bool {
	return !d.bad && d.peek() == 0 && d.i == len(d.b)
}

// peek skips white space and returns the next byte without consuming it (0 at
// the end of the document or after a failure).
func (d *Dec) peek() byte {
	if d.bad {
		return 0
	}
	for d.i < len(d.b) {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return c
		}
	}
	return 0
}

// Expect consumes the byte c.
func (d *Dec) Expect(c byte) {
	if d.peek() != c {
		d.bad = true
		return
	}
	d.i++
}

// Next reports whether another element follows in the array or object that
// end closes, consuming the separator or the closing byte. first says that no
// element has been read yet.
func (d *Dec) Next(end byte, first bool) bool {
	switch c := d.peek(); {
	case c == end:
		d.i++
		return false
	case first:
		return !d.bad
	case c == ',':
		d.i++
		return true
	}
	d.bad = true
	return false
}

// raw scans a string of printable ASCII without escapes and returns its bytes
// in place.
func (d *Dec) raw() []byte {
	d.Expect('"')
	if d.bad {
		return nil
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s
		case c < 0x20 || c >= 0x7f || c == '\\':
			d.bad = true
			return nil
		}
	}
	d.bad = true
	return nil
}

// Str scans a string value and returns a copy of it.
func (d *Dec) Str() string { return string(d.raw()) }

// Key scans an object key and its colon. The bytes alias the document: compare
// them (switch string(key)), do not keep them.
func (d *Dec) Key() []byte {
	k := d.raw()
	d.Expect(':')
	return k
}

// Once fails the scan when bit is already set in *seen, and sets it: a
// repeated key merges values in encoding/json, which the decoders leave to it.
func (d *Dec) Once(seen *uint, bit uint) {
	if *seen&bit != 0 {
		d.bad = true
	}
	*seen |= bit
}

// digits scans an unsigned decimal of at most max digits, without leading
// zeros.
func (d *Dec) digits(max int) uint64 {
	var v uint64
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		v = v*10 + uint64(d.b[d.i]-'0')
		d.i++
	}
	if n := d.i - start; n == 0 || n > max || (n > 1 && d.b[start] == '0') {
		d.bad = true
		return 0
	}
	return v
}

// Int64 scans an integer that fits an int64.
func (d *Dec) Int64() int64 {
	neg := d.peek() == '-'
	if neg {
		d.i++
	}
	u := d.digits(19)
	if u > 1<<63 || (u == 1<<63 && !neg) {
		d.bad = true
		return 0
	}
	if neg {
		return -int64(u) // wraps to the minimum at 1<<63
	}
	return int64(u)
}

// Int scans an integer that fits an int.
func (d *Dec) Int() int {
	v := d.Int64()
	if int64(int(v)) != v {
		d.bad = true
		return 0
	}
	return int(v)
}

// Uint64 scans a non-negative integer of at most 19 digits.
func (d *Dec) Uint64() uint64 {
	d.peek()
	return d.digits(19) // 19 digits cannot overflow a uint64
}

// Ints scans an array of integers.
func (d *Dec) Ints() []int {
	d.Expect('[')
	if d.bad {
		return nil
	}
	n := 1
	for j := d.i; j < len(d.b) && d.b[j] != ']'; j++ {
		if d.b[j] == ',' {
			n++
		}
	}
	out := make([]int, 0, n)
	for first := true; d.Next(']', first); first = false {
		out = append(out, d.Int())
	}
	return out
}
