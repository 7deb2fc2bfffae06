// Package codec is the one reader, and the string writer, under every
// hand-rolled binary format in the repository: core's tuples, the store's
// payloads, the remote bodies, the rpc envelope and reldb's files. Its one
// rule: a varint must be minimal, exactly what binary.AppendUvarint
// writes, so what decodes re-encodes to its input, on disk, on the wire
// and in tuples alike. It imports nothing from the module.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var (
	errTruncated = errors.New("codec: truncated input")
	errVarint    = errors.New("codec: truncated or malformed varint")
	errLength    = errors.New("codec: length past the end of the input")
	errFlag      = errors.New("codec: presence byte is neither 0 nor 1")
)

// AppendStr writes s as a uvarint length and its bytes.
func AppendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Uvarint reads the minimal uvarint at the front of b and returns it with
// its length in bytes; the length is 0 when b starts with none, with an
// overlong one, or with one that overflows 64 bits. It takes a string as
// well as a []byte, so a string decoder (core.DecodeTuple) reads without
// converting.
func Uvarint[B ~string | ~[]byte](b B) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < binary.MaxVarintLen64; i++ {
		c := b[i]
		if c < 0x80 {
			if (i > 0 && c == 0) || (i == binary.MaxVarintLen64-1 && c > 1) {
				return 0, 0
			}
			return x | uint64(c)<<(7*i), i + 1
		}
		x |= uint64(c&0x7f) << (7 * i)
	}
	return 0, 0
}

// Reader walks an encoding front to back. Its input is untrusted: every
// length and count is checked against the bytes that remain before
// anything is sized by it. The first failure sticks and drops the rest of
// the input, so every later read returns a zero value and a decoder checks
// the error once per loop, or at End.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Fail records err, unless an earlier failure is already recorded, and
// drops the rest of the input.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.b) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.Fail(errTruncated)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Flag reads a presence byte, which is 0 or 1.
func (r *Reader) Flag() bool {
	c := r.Byte()
	if c > 1 {
		r.Fail(errFlag)
	}
	return c == 1
}

// Uvarint reads a minimal uvarint.
func (r *Reader) Uvarint() uint64 {
	v, n := Uvarint(r.b)
	if n == 0 {
		r.Fail(errVarint)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads what binary.AppendVarint writes: a zigzag-encoded minimal
// uvarint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads a byte length or an element count. Every element takes at
// least one byte, so a count above what remains is a lie, caught here
// before anything is sized by it.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.Fail(errLength)
		return 0
	}
	return int(n)
}

// Bytes reads what AppendStr wrote, as a slice of the input: it aliases
// the input and must be copied by whatever keeps it past the input's
// lifetime.
func (r *Reader) Bytes() []byte {
	n := r.Count()
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

// Str reads what AppendStr wrote, as a copy.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Rest takes every remaining byte, for a body that ends in bytes another
// codec owns: nil when none are left or after a failure.
func (r *Reader) Rest() []byte {
	b := r.b
	r.b = nil
	if len(b) == 0 {
		return nil
	}
	return b
}

// End reports the first failure, or trailing bytes as one.
func (r *Reader) End() error {
	if len(r.b) != 0 {
		r.Fail(fmt.Errorf("codec: %d trailing bytes", len(r.b)))
	}
	return r.err
}
