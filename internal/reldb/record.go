package reldb

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"orchestra/internal/codec"
)

// The one on-disk format, shared by WAL records and snapshot.db; the byte
// layout is in docs/STORAGE.md ("reldb's record and snapshot format"). Both
// open with recMagic and a version. A format change is a new version
// number: the reader reads the one version the encoder writes, Open refuses
// a directory in an older one with an error naming the releases that
// upgrade it (errGobDir, errVersion1Dir), and the golden bytes in
// record_test.go make the change a deliberate edit.
const (
	// recMagic cannot open a gob stream (gob starts with a non-zero message
	// length), which is how Open tells, and refuses, a directory written
	// before this format existed (errGobDir).
	recMagic = 0x00
	// recVersion is the version the encoder writes: a put, delete or drop
	// names its table by id, a create and snapshot.db give name and id.
	// Version 1 named the table in every op (errVersion1Dir).
	recVersion = 2
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
	id   uint64   // the table; for opCreate the id it gets
	name string   // opCreate: def.Name; opSeq: the sequence
	row  string   // opPut: the row's encoding (appendRow), the table's stored form
	pk   string   // opDelete: the row's key encoding (TableDef.keyOf)
	def  TableDef // opCreate
	seqV int64    // opSeq: the sequence's new value
}

func appendHeader(dst []byte) []byte { return append(dst, recMagic, recVersion) }

func appendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = v.appendEncoded(dst)
	}
	return dst
}

// appendDef appends a table definition's columns and key; its name and id
// go before it.
func appendDef(dst []byte, d *TableDef) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.Cols)))
	for _, c := range d.Cols {
		nullable := byte(0)
		if c.Nullable {
			nullable = 1
		}
		dst = append(codec.AppendStr(dst, c.Name), byte(c.Type), nullable)
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.Key)))
	for _, k := range d.Key {
		dst = binary.AppendUvarint(dst, uint64(k))
	}
	return dst
}

func appendOp(dst []byte, op *walOp) []byte {
	dst = append(dst, byte(op.kind))
	switch op.kind {
	case opPut:
		dst = binary.AppendUvarint(dst, op.id)
		dst = append(dst, op.row...)
	case opDelete:
		dst = binary.AppendUvarint(dst, op.id)
		dst = codec.AppendStr(dst, op.pk)
	case opCreate:
		dst = binary.AppendUvarint(codec.AppendStr(dst, op.name), op.id)
		dst = appendDef(dst, &op.def)
	case opSeq:
		dst = codec.AppendStr(dst, op.name)
		dst = binary.AppendUvarint(dst, uint64(op.seqV))
	case opDrop:
		dst = binary.AppendUvarint(dst, op.id)
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
		dst = codec.AppendStr(dst, name)
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
		dst = binary.AppendUvarint(codec.AppendStr(dst, name), t.id)
		dst = appendDef(dst, &t.def)
		dst = binary.AppendUvarint(dst, uint64(t.rows.Len()))
		t.ascend(func(row string) bool {
			dst = append(dst, row...)
			return true
		})
	}
	return dst
}

// reader decodes both. codec.Reader checks every length and count against
// the bytes that remain and refuses non-minimal varints, so that what
// decodes is exactly what the writer above would have written; reader adds
// what is reldb's own. Its input is a file's bytes, so nothing in it is
// trusted, and reads after a failure return zero values, which keeps the
// callers free of a check per field.
type reader struct {
	codec.Reader
	in []byte // the whole input, which row slices
	// emit receives each decoded op; its error stops the decode. op is the
	// one walOp every emit is handed, so a decode allocates what the ops
	// carry and nothing per op.
	emit func(*walOp) error
	op   walOp
}

// index reads a non-negative int that is not a length: a key column's
// position, a segment number.
func (r *reader) index() int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.Fail(errors.New("index out of range"))
		return 0
	}
	return int(v)
}

// id reads a table id. Replay sets the next id to one past the largest it
// sees, which the bound keeps from wrapping.
func (r *reader) id() uint64 {
	v := r.Uvarint()
	if v > math.MaxInt64 {
		r.Fail(errors.New("table id out of range"))
		return 0
	}
	return v
}

func (r *reader) header() {
	if r.Byte() != recMagic {
		r.Fail(errors.New("bad magic byte"))
	}
	if r.Byte() != recVersion {
		r.Fail(errors.New("unknown format version"))
	}
}

// row checks that a row is well formed — a count, then that many values,
// each of a known type with minimal varints and lengths inside the input —
// and returns its bytes as a copy: the stored row, which never aliases the
// input. Whether the row fits its table is DB.replay's check.
func (r *reader) row() string {
	start := len(r.in) - r.Len()
	for n := r.Count(); n > 0; n-- {
		switch ColType(r.Byte()) {
		case 0:
		case ColString, ColBytes:
			r.Bytes()
		case ColInt, ColFloat, ColBool:
			r.Uvarint()
		default:
			r.Fail(errors.New("unknown value type"))
		}
	}
	if r.Err() != nil {
		return ""
	}
	return string(r.in[start : len(r.in)-r.Len()])
}

func (r *reader) def(name string) TableDef {
	d := TableDef{Name: name, Cols: make([]ColDef, r.Count())}
	for i := range d.Cols {
		d.Cols[i] = ColDef{Name: r.Str(), Type: ColType(r.Byte()), Nullable: r.Flag()}
	}
	d.Key = make([]int, r.Count())
	for i := range d.Key {
		d.Key[i] = r.index()
	}
	return d
}

// send hands op to emit unless the decode has already failed.
func (r *reader) send(op walOp) {
	if r.Err() != nil {
		return
	}
	r.op = op
	if err := r.emit(&r.op); err != nil {
		r.Fail(err)
	}
}

// decodeRecord reads one WAL record — the header, then ops to the end of
// the payload — handing emit each op as it is read.
func decodeRecord(payload []byte, emit func(*walOp) error) error {
	r := reader{Reader: codec.NewReader(payload), in: payload, emit: emit}
	r.header()
	for r.Len() > 0 {
		op := walOp{kind: opKind(r.Byte())}
		switch op.kind {
		case opPut:
			op.id = r.id()
			op.row = r.row()
		case opDelete:
			op.id = r.id()
			op.pk = r.Str()
		case opCreate:
			op.name = r.Str()
			op.id = r.id()
			op.def = r.def(op.name)
		case opSeq:
			op.name = r.Str()
			op.seqV = int64(r.Uvarint())
		case opDrop:
			op.id = r.id()
		default:
			r.Fail(errors.New("unknown op kind"))
		}
		r.send(op)
	}
	return r.Err()
}

// decodeSnapshot reads snapshot.db as the ops that rebuild it — each
// sequence an opSeq, each table an opCreate and one opPut per row — and
// returns its WAL mark.
func decodeSnapshot(data []byte, emit func(*walOp) error) (walFrom int, err error) {
	r := reader{Reader: codec.NewReader(data), in: data, emit: emit}
	r.header()
	walFrom = r.index()
	for n := r.Count(); n > 0; n-- {
		r.send(walOp{kind: opSeq, name: r.Str(), seqV: int64(r.Uvarint())})
	}
	for n := r.Count(); n > 0; n-- {
		create := walOp{kind: opCreate, name: r.Str(), id: r.id()}
		create.def = r.def(create.name)
		r.send(create)
		put := walOp{kind: opPut, id: create.id}
		for rows := r.Count(); rows > 0; rows-- {
			put.row = r.row()
			r.send(put)
		}
	}
	return walFrom, r.End()
}
