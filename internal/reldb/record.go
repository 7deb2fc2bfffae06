package reldb

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
)

// The one on-disk format, shared by WAL records and snapshot.db; the byte
// layout is in docs/STORAGE.md ("WAL: record format"). Both open with
// recMagic and recVersion. A format change is a new version number: the
// reader refuses versions it does not know, and the golden bytes in
// record_test.go make the change a deliberate edit.
const (
	// recMagic cannot open a gob stream (gob starts with a non-zero message
	// length), which is how Open tells a directory written before this
	// format existed (legacy.go).
	recMagic   = 0x00
	recVersion = 1
)

type opKind uint8

const (
	opPut opKind = iota + 1
	opDelete
	opCreate
	opSeq
	opDrop
)

// walOp is one logged mutation: what Tx.logOp encodes and what the decoders
// hand to DB.replay, one at a time.
type walOp struct {
	kind opKind
	name string   // the table; for opSeq the sequence; for opCreate def.Name
	row  Row      // opPut
	pk   string   // opDelete: the row's pkEnc
	def  TableDef // opCreate
	seqV int64    // opSeq: the sequence's new value
}

func appendHeader(dst []byte) []byte { return append(dst, recMagic, recVersion) }

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = v.appendEncoded(dst)
	}
	return dst
}

// appendDef appends a table definition's columns and key; its name goes
// before it, as every op's name does.
func appendDef(dst []byte, d *TableDef) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.Cols)))
	for _, c := range d.Cols {
		nullable := byte(0)
		if c.Nullable {
			nullable = 1
		}
		dst = append(appendStr(dst, c.Name), byte(c.Type), nullable)
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.Key)))
	for _, k := range d.Key {
		dst = binary.AppendUvarint(dst, uint64(k))
	}
	return dst
}

func appendOp(dst []byte, op *walOp) []byte {
	dst = append(dst, byte(op.kind))
	dst = appendStr(dst, op.name)
	switch op.kind {
	case opPut:
		dst = appendRow(dst, op.row)
	case opDelete:
		dst = appendStr(dst, op.pk)
	case opCreate:
		dst = appendDef(dst, &op.def)
	case opSeq:
		dst = binary.AppendUvarint(dst, uint64(op.seqV))
	}
	return dst
}

// appendSnapshot appends the whole database: header, walFrom, the sequences
// and the tables, each in name order, a table's rows in ascend order.
func (db *DB) appendSnapshot(dst []byte, walFrom int) []byte {
	dst = appendHeader(dst)
	dst = binary.AppendUvarint(dst, uint64(walFrom))
	seqs := make([]string, 0, len(db.seqs))
	for name := range db.seqs {
		seqs = append(seqs, name)
	}
	slices.Sort(seqs)
	dst = binary.AppendUvarint(dst, uint64(len(seqs)))
	for _, name := range seqs {
		dst = appendStr(dst, name)
		dst = binary.AppendUvarint(dst, uint64(db.seqs[name]))
	}
	tables := make([]string, 0, len(db.tables))
	for name := range db.tables {
		tables = append(tables, name)
	}
	slices.Sort(tables)
	dst = binary.AppendUvarint(dst, uint64(len(tables)))
	for _, name := range tables {
		t := db.tables[name]
		dst = appendStr(dst, name)
		dst = appendDef(dst, &t.def)
		dst = binary.AppendUvarint(dst, uint64(len(t.rows)))
		t.ascend(func(r Row) bool {
			dst = appendRow(dst, r)
			return true
		})
	}
	return dst
}

// reader is the one decoder. Its input is a file's bytes, so nothing in it
// is trusted: every length and count is checked against the bytes that
// remain before anything is sized by it, and varints must be minimal, so
// that what decodes is exactly what the writer above would have written.
// The first failure sticks in err and empties b; reads after it return
// zero values, which keeps the callers free of a check per field.
type reader struct {
	b   []byte
	err error
	// emit receives each decoded op; its error stops the decode. op is the
	// one walOp every emit is handed, so a decode allocates what the ops
	// carry and nothing per op.
	emit func(*walOp) error
	op   walOp
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
	r.b = nil
}

func (r *reader) byte() byte {
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail("truncated or malformed varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a byte length or an element count. Every element takes at
// least one byte, so a count above what remains is a lie — caught here,
// before a slice is made from it.
func (r *reader) count() int {
	v := r.uvarint()
	if v > uint64(len(r.b)) {
		r.fail("length past the end of the input")
		return 0
	}
	return int(v)
}

// index reads a non-negative int that is not a length: a key column's
// position, a segment number.
func (r *reader) index() int {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail("index out of range")
		return 0
	}
	return int(v)
}

func (r *reader) bytes() []byte {
	n := r.count()
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *reader) header() {
	if r.byte() != recMagic {
		r.fail("bad magic byte")
	}
	if r.byte() != recVersion {
		r.fail("unknown format version")
	}
}

func (r *reader) value() V {
	switch t := ColType(r.byte()); t {
	case 0:
		return V{}
	case ColString, ColBytes:
		return V{t: t, s: string(r.bytes())}
	case ColInt, ColFloat, ColBool:
		return V{t: t, n: r.uvarint()}
	default:
		r.fail("unknown value type")
		return V{}
	}
}

func (r *reader) row() Row {
	row := make(Row, r.count())
	for i := range row {
		row[i] = r.value()
	}
	return row
}

func (r *reader) def(name string) TableDef {
	d := TableDef{Name: name, Cols: make([]ColDef, r.count())}
	for i := range d.Cols {
		d.Cols[i] = ColDef{Name: string(r.bytes()), Type: ColType(r.byte())}
		switch r.byte() {
		case 0:
		case 1:
			d.Cols[i].Nullable = true
		default:
			r.fail("bad nullable flag")
		}
	}
	d.Key = make([]int, r.count())
	for i := range d.Key {
		d.Key[i] = r.index()
	}
	return d
}

// send hands op to emit unless the decode has already failed.
func (r *reader) send(op walOp) {
	if r.err != nil {
		return
	}
	r.op = op
	if err := r.emit(&r.op); err != nil {
		r.err = err
		r.b = nil
	}
}

// decodeRecord reads one WAL record — the header, then ops to the end of
// the payload — handing emit each op as it is read.
func decodeRecord(payload []byte, emit func(*walOp) error) error {
	r := reader{b: payload, emit: emit}
	r.header()
	for len(r.b) > 0 {
		op := walOp{kind: opKind(r.byte()), name: string(r.bytes())}
		switch op.kind {
		case opPut:
			op.row = r.row()
		case opDelete:
			op.pk = string(r.bytes())
		case opCreate:
			op.def = r.def(op.name)
		case opSeq:
			op.seqV = int64(r.uvarint())
		case opDrop:
		default:
			r.fail("unknown op kind")
		}
		r.send(op)
	}
	return r.err
}

// decodeSnapshot reads snapshot.db as the ops that rebuild it — each
// sequence an opSeq, each table an opCreate and one opPut per row — and
// returns its WAL mark.
func decodeSnapshot(data []byte, emit func(*walOp) error) (walFrom int, err error) {
	r := reader{b: data, emit: emit}
	r.header()
	walFrom = r.index()
	for n := r.count(); n > 0; n-- {
		r.send(walOp{kind: opSeq, name: string(r.bytes()), seqV: int64(r.uvarint())})
	}
	for n := r.count(); n > 0; n-- {
		name := string(r.bytes())
		r.send(walOp{kind: opCreate, name: name, def: r.def(name)})
		for rows := r.count(); rows > 0; rows-- {
			r.send(walOp{kind: opPut, name: name, row: r.row()})
		}
	}
	if len(r.b) > 0 {
		r.fail("trailing bytes")
	}
	return walFrom, r.err
}
