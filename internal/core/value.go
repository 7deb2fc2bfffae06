// Package core implements the data model and reconciliation semantics of a
// collaborative data sharing system (CDSS) as defined by Taylor & Ives,
// "Reconciling while Tolerating Disagreement in Collaborative Data Sharing"
// (SIGMOD 2006).
//
// The package provides typed tuple values, relations and schemas, the three
// update operations (+R(ā;i), −R(ā;i), R(ā→ā′;i)), transactions, delta
// flattening, conflict detection, antecedent graphs, transaction extensions,
// per-peer database instances, and the client-centric reconciliation engine
// (ReconcileUpdates and its helpers) together with deferral, conflict groups,
// options, and user-driven conflict resolution.
//
// An Engine is single-owner: one goroutine drives Reconcile/Resolve at a
// time, and every stage runs on it. The package starts no goroutine;
// concurrency is per peer, one engine each (see docs/ARCHITECTURE.md).
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"orchestra/internal/codec"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds. KindNull is the zero Kind and represents the
// absence of a value (SQL NULL).
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single typed attribute value. Values are immutable and
// comparable with Equal and Compare; the zero Value is NULL.
type Value struct {
	kind Kind
	s    string
	n    uint64 // int64 bits, float64 bits, or bool (0/1)
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// S returns a string value.
func S(s string) Value { return Value{kind: KindString, s: s} }

// I returns an integer value.
func I(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// F returns a floating-point value.
func F(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// B returns a boolean value.
func B(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload; it is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// Int returns the integer payload; it is only meaningful for KindInt.
func (v Value) Int() int64 { return int64(v.n) }

// Float returns the float payload; it is only meaningful for KindFloat.
func (v Value) Float() float64 { return math.Float64frombits(v.n) }

// Bool returns the boolean payload; it is only meaningful for KindBool.
func (v Value) Bool() bool { return v.n != 0 }

// Equal reports whether two values are identical (same kind and payload).
func (v Value) Equal(w Value) bool { return v == w }

// Compare orders values: first by kind, then by payload. It returns a
// negative number, zero, or a positive number as v sorts before, equal to,
// or after w. The ordering is total and is used by indexes and for
// deterministic output, not for SQL comparison semantics.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		return int(v.kind) - int(w.kind)
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindString:
		return strings.Compare(v.s, w.s)
	case KindInt:
		a, b := int64(v.n), int64(w.n)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case KindFloat:
		a, b := math.Float64frombits(v.n), math.Float64frombits(w.n)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		case a == b:
			return 0
		}
		// NaNs sort after everything, equal to each other.
		an, bn := math.IsNaN(a), math.IsNaN(b)
		switch {
		case an && bn:
			return 0
		case an:
			return 1
		default:
			return -1
		}
	case KindBool:
		return int(v.n) - int(w.n)
	}
	return 0
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// appendEncoded appends a canonical, self-delimiting binary encoding of the
// value to dst. The encoding is injective: distinct values have distinct
// encodings, so encoded tuples can be used as map keys. Varints are
// minimal, which decodeValue enforces (codec.Uvarint).
func (v Value) appendEncoded(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case KindInt, KindFloat, KindBool:
		dst = binary.AppendUvarint(dst, v.n)
	}
	return dst
}

// encodedLen is the number of bytes appendEncoded writes.
func (v Value) encodedLen() int {
	switch v.kind {
	case KindString:
		return 1 + uvarintLen(uint64(len(v.s))) + len(v.s)
	case KindInt, KindFloat, KindBool:
		return 1 + uvarintLen(v.n)
	}
	return 1
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// GobEncode implements gob encoding for Value (its fields are unexported)
// for the one gob user left: the DHT experiment's messages
// (internal/exp/dhtstore/netcentric.go sends transactions over gob). The
// wire and the store encode tuples with the store codec instead.
func (v Value) GobEncode() ([]byte, error) { return v.appendEncoded(nil), nil }

// GobDecode implements gob decoding for Value.
func (v *Value) GobDecode(data []byte) error {
	dec, n, err := decodeValue(string(data))
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("core: trailing bytes in Value encoding")
	}
	*v = dec
	return nil
}

// decodeValue decodes the value appendEncoded wrote at the front of src and
// reports how many bytes it took. A string value is a substring of src. It
// accepts nothing appendEncoded does not write, so the bytes it takes
// re-encode to themselves.
func decodeValue(src string) (Value, int, error) {
	if len(src) == 0 {
		return Value{}, 0, fmt.Errorf("core: decode value: empty input")
	}
	k := Kind(src[0])
	switch k {
	case KindNull:
		return Value{}, 1, nil
	case KindString:
		n, sz := codec.Uvarint(src[1:])
		if sz == 0 {
			return Value{}, 0, fmt.Errorf("core: decode value: bad string length")
		}
		start := 1 + sz
		if uint64(len(src)-start) < n {
			return Value{}, 0, fmt.Errorf("core: decode value: short string payload")
		}
		end := start + int(n)
		return S(src[start:end]), end, nil
	case KindInt, KindFloat, KindBool:
		n, sz := codec.Uvarint(src[1:])
		if sz == 0 {
			return Value{}, 0, fmt.Errorf("core: decode value: bad numeric payload")
		}
		return Value{kind: k, n: n}, 1 + sz, nil
	default:
		return Value{}, 0, fmt.Errorf("core: decode value: unknown kind %d", k)
	}
}
