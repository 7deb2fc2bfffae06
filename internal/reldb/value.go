// Package reldb implements a small embedded relational engine: typed
// tables with primary keys, atomic multi-statement transactions with
// rollback, sequences, WAL-based durability with crash recovery, and
// snapshot checkpoints.
//
// It stands in for the commercial RDBMS the paper uses as its centralized
// update store backend (§5.2.1): the central store keeps its epochs,
// transactions, decisions, reconciliations, and trust-condition tables here.
package reldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"orchestra/internal/codec"
)

// ColType is a column's declared type.
type ColType uint8

// The supported column types.
const (
	ColString ColType = iota + 1
	ColInt
	ColFloat
	ColBool
	ColBytes
)

// String names the column type.
func (t ColType) String() string {
	switch t {
	case ColString:
		return "string"
	case ColInt:
		return "int"
	case ColFloat:
		return "float"
	case ColBool:
		return "bool"
	case ColBytes:
		return "bytes"
	default:
		return fmt.Sprintf("coltype(%d)", uint8(t))
	}
}

// V is a single column value: a tagged union over the column types. The
// zero V is NULL.
type V struct {
	t ColType // 0 = NULL
	s string  // string payload; bytes stored as string
	n uint64  // int64 bits, float64 bits, or bool
}

// Null returns the NULL value.
func Null() V { return V{} }

// Str returns a string value.
func Str(s string) V { return V{t: ColString, s: s} }

// Int returns an integer value.
func Int(i int64) V { return V{t: ColInt, n: uint64(i)} }

// Float returns a float value.
func Float(f float64) V { return V{t: ColFloat, n: math.Float64bits(f)} }

// Bool returns a boolean value.
func Bool(b bool) V {
	var n uint64
	if b {
		n = 1
	}
	return V{t: ColBool, n: n}
}

// Bytes returns a bytes value (the slice is copied).
func Bytes(b []byte) V { return V{t: ColBytes, s: string(b)} }

// Type returns the value's type (0 for NULL).
func (v V) Type() ColType { return v.t }

// IsNull reports whether the value is NULL.
func (v V) IsNull() bool { return v.t == 0 }

// S returns the string payload.
func (v V) S() string { return v.s }

// I returns the integer payload.
func (v V) I() int64 { return int64(v.n) }

// F returns the float payload.
func (v V) F() float64 { return math.Float64frombits(v.n) }

// B returns the boolean payload.
func (v V) B() bool { return v.n != 0 }

// Raw returns the bytes payload.
func (v V) Raw() []byte { return []byte(v.s) }

// String renders the value for diagnostics.
func (v V) String() string {
	switch v.t {
	case ColString:
		return strconv.Quote(v.s)
	case ColInt:
		return strconv.FormatInt(int64(v.n), 10)
	case ColFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case ColBool:
		return strconv.FormatBool(v.n != 0)
	case ColBytes:
		return fmt.Sprintf("0x%x", v.s)
	default:
		return "NULL"
	}
}

// appendEncoded appends a canonical order-irrelevant but injective encoding:
// the form of a value in table keys (not for ordering comparisons), in
// stored rows and on disk (record.go); valueAt decodes it.
func (v V) appendEncoded(dst []byte) []byte {
	dst = append(dst, byte(v.t))
	switch v.t {
	case 0:
	case ColString, ColBytes:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	default:
		dst = binary.AppendUvarint(dst, v.n)
	}
	return dst
}

// Row is an ordered list of column values.
type Row []V

// Equal reports componentwise equality.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i] != o[i] {
			return false
		}
	}
	return true
}

// appendVals appends the encoding of a value list: a primary key's, built
// from the values a lookup names.
func appendVals(dst []byte, vals []V) []byte {
	for _, v := range vals {
		dst = v.appendEncoded(dst)
	}
	return dst
}

// A table stores each row as its encoding, the bytes appendRow writes: the
// column count, then every value as appendEncoded writes it. The walkers
// below read a stored row, which appendRow wrote or the record decoder
// checked, so they trust its structure.

// rowCols returns a stored row's column count and the offset of its first
// value.
func rowCols(enc string) (n, off int) {
	c, w := codec.Uvarint(enc)
	return int(c), w
}

// valueAt decodes the value at enc[off:] and returns it with the offset
// past it. A string or bytes value is a substring of enc: no payload is
// copied.
func valueAt(enc string, off int) (V, int) {
	t := ColType(enc[off])
	off++
	switch t {
	case 0:
		return V{}, off
	case ColString, ColBytes:
		n, w := codec.Uvarint(enc[off:])
		off += w
		return V{t: t, s: enc[off : off+int(n)]}, off + int(n)
	default:
		n, w := codec.Uvarint(enc[off:])
		return V{t: t, n: n}, off + w
	}
}

// decodeRow appends a stored row's values to dst[:0].
func decodeRow(dst Row, enc string) Row {
	n, off := rowCols(enc)
	dst = dst[:0]
	for ; n > 0; n-- {
		var v V
		v, off = valueAt(enc, off)
		dst = append(dst, v)
	}
	return dst
}
