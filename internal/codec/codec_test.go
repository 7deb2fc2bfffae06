package codec

import (
	"encoding/binary"
	"math"
	"testing"
)

// padded returns the minimal uvarint of v widened to width bytes: each
// extra byte continues the varint and adds nothing, which binary.Uvarint
// accepts and this package must not.
func padded(v uint64, width int) []byte {
	b := binary.AppendUvarint(nil, v)
	for len(b) < width {
		b[len(b)-1] |= 0x80
		b = append(b, 0)
	}
	return b
}

// readCase is one row of TestReader: read applied to in must give want, and
// End must then report nothing — or, when want is nil, the read or End must
// fail.
type readCase struct {
	name string
	in   []byte
	read func(r *Reader) any
	want any
}

func uvarint(r *Reader) any { return r.Uvarint() }
func varint(r *Reader) any  { return r.Varint() }
func str(r *Reader) any     { return r.Str() }
func count(r *Reader) any   { return r.Count() }
func flag(r *Reader) any    { return r.Flag() }
func oneByte(r *Reader) any { return r.Byte() }

// TestReader is the reader's contract: minimal varints only, at every
// width; lengths and counts bounded by the bytes left; trailing bytes an
// error at End; the first failure sticks and empties the reader; Str owns
// its bytes while Bytes aliases the input; and the generic Uvarint reads a
// string as it reads a []byte.
func TestReader(t *testing.T) {
	cases := []readCase{
		{"uvarint 0", []byte{0}, uvarint, uint64(0)},
		{"uvarint max", binary.AppendUvarint(nil, math.MaxUint64), uvarint, uint64(math.MaxUint64)},
		{"uvarint past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, uvarint, nil},
		{"uvarint of 11 bytes", append(padded(1, 10), 0), uvarint, nil},
		{"uvarint torn", []byte{0x80}, uvarint, nil},
		{"varint min", binary.AppendVarint(nil, math.MinInt64), varint, int64(math.MinInt64)},
		{"varint -1", binary.AppendVarint(nil, -1), varint, int64(-1)},
		{"str", []byte{2, 'h', 'i'}, str, "hi"},
		{"str of padded length", append(padded(2, 2), 'h', 'i'), str, nil},
		{"str past the end", []byte{3, 'h', 'i'}, str, nil},
		{"count of what is left", []byte{1, 0}, func(r *Reader) any { n := r.Count(); r.Byte(); return n }, 1},
		{"count past the end", []byte{2, 0}, count, nil},
		{"flag 1", []byte{1}, flag, true},
		{"flag 2", []byte{2}, flag, nil},
		{"byte of nothing", nil, oneByte, nil},
		{"trailing byte", []byte{1, 0}, oneByte, nil},
	}
	for width := 2; width <= binary.MaxVarintLen64; width++ {
		for _, v := range []uint64{0, 1, 127} {
			cases = append(cases,
				readCase{"padded uvarint", padded(v, width), uvarint, nil},
				readCase{"padded varint", padded(v, width), varint, nil})
		}
	}
	for _, c := range cases {
		r := NewReader(c.in)
		got := c.read(&r)
		err := r.End()
		switch {
		case c.want == nil && err == nil:
			t.Errorf("%s %x: read %v, want a failure", c.name, c.in, got)
		case c.want != nil && (err != nil || got != c.want):
			t.Errorf("%s %x: read %v, %v; want %v", c.name, c.in, got, err, c.want)
		}
	}

	// The first failure sticks and empties the reader.
	r := NewReader([]byte{0x80, 0x00, 5, 'a', 'b', 'c', 'd', 'e'})
	if v := r.Uvarint(); v != 0 || r.Err() != errVarint {
		t.Fatalf("padded uvarint: %d, %v", v, r.Err())
	}
	if r.Len() != 0 || r.Str() != "" || r.Byte() != 0 || r.Count() != 0 || r.Rest() != nil {
		t.Error("a read after a failure returned data")
	}
	if err := r.End(); err != errVarint {
		t.Errorf("End = %v, want the first failure", err)
	}

	// Str copies; Bytes aliases, capped at its length.
	in := []byte{2, 'h', 'i', 2, 'y', 'o', 'z'}
	r = NewReader(in)
	s, b := r.Str(), r.Bytes()
	if rest := r.Rest(); string(rest) != "z" || r.End() != nil {
		t.Errorf("Rest = %q, %v", rest, r.End())
	}
	for i := range in {
		in[i] = 'x'
	}
	if s != "hi" {
		t.Errorf("Str = %q after its input was overwritten", s)
	}
	if string(b) != "xx" || cap(b) != 2 {
		t.Errorf("Bytes = %q (cap %d), want an alias of the input capped at its length", b, cap(b))
	}

	for _, in := range [][]byte{{0}, {0x80, 1}, padded(1, 3), {0xff}, binary.AppendUvarint(nil, math.MaxUint64)} {
		v1, n1 := Uvarint(in)
		v2, n2 := Uvarint(string(in))
		if v1 != v2 || n1 != n2 {
			t.Errorf("%x: []byte gives %d/%d, string %d/%d", in, v1, n1, v2, n2)
		}
	}
}
