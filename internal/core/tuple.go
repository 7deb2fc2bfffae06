package core

import (
	"fmt"
	"strings"
)

// Tuple is an ordered list of attribute values conforming to some relation's
// schema. Tuples are treated as immutable by the reconciliation machinery;
// callers that retain tuples after handing them to the engine must not
// mutate them.
type Tuple []Value

// T builds a tuple from values; a small convenience for literals.
func T(vs ...Value) Tuple { return Tuple(vs) }

// Strs builds a tuple of string values; the common case in the paper's
// examples (e.g. (rat, prot1, cell-metab)).
func Strs(ss ...string) Tuple {
	t := make(Tuple, len(ss))
	for i, s := range ss {
		t[i] = S(s)
	}
	return t
}

// Equal reports whether two tuples have identical arity and values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically by Value.Compare, shorter tuples
// first on ties.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	return len(t) - len(u)
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	u := make(Tuple, len(t))
	copy(u, t)
	return u
}

// Project returns the sub-tuple selected by the given attribute indices.
// It panics if an index is out of range; schema validation happens earlier.
func (t Tuple) Project(idx []int) Tuple {
	u := make(Tuple, len(idx))
	for i, j := range idx {
		u[i] = t[j]
	}
	return u
}

// Encode returns a canonical injective encoding of the tuple, suitable for
// use as a map key. The empty tuple and nil encode identically.
func (t Tuple) Encode() string {
	n := 0
	for _, v := range t {
		n += v.encodedLen()
	}
	var buf [64]byte
	dst := sized(buf[:0], n)
	for _, v := range t {
		dst = v.appendEncoded(dst)
	}
	return string(dst)
}

// sized returns buf when n bytes fit in it, else a fresh buffer of
// capacity n, so an encoder appends without growing.
func sized(buf []byte, n int) []byte {
	if n <= cap(buf) {
		return buf
	}
	return make([]byte, 0, n)
}

// DecodeTuple decodes a tuple produced by Encode. The arity is recovered
// from the encoding itself: one counting pass sizes the tuple, and string
// values are substrings of enc, not copies. Decoding is canonical — it
// rejects what Encode never writes (a non-minimal varint, for one) — so
// anything it accepts re-encodes to exactly enc.
func DecodeTuple(enc string) (Tuple, error) {
	if enc == "" {
		return nil, nil
	}
	n := 0
	for rest := enc; rest != ""; n++ {
		_, m, err := decodeValue(rest)
		if err != nil {
			return nil, err
		}
		rest = rest[m:]
	}
	t := make(Tuple, n)
	for i := range t {
		v, m, _ := decodeValue(enc)
		t[i], enc = v, enc[m:]
	}
	return t, nil
}

// String renders the tuple in the paper's (a, b, c) notation.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// tupleKey is a (relation, encoded tuple) pair used as a map key that
// identifies a concrete tuple value in a concrete relation.
type tupleKey struct {
	rel string
	enc string
}

func mkTupleKey(rel string, t Tuple) tupleKey { return tupleKey{rel: rel, enc: t.Encode()} }

func (k tupleKey) String() string {
	t, err := DecodeTuple(k.enc)
	if err != nil {
		return fmt.Sprintf("%s<bad:%q>", k.rel, k.enc)
	}
	return k.rel + t.String()
}
