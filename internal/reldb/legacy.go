package reldb

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Directories written before the record format of record.go hold gob: a
// snapshot.db that is one gob-encoded legacySnapshot, and WAL records that
// are each a gob-encoded []legacyOp. Open recognises them by their first
// byte, replays them through this file and checkpoints at once, so gob is
// read in that one step and never written. Everything here is reachable
// only from there; the file goes when old directories may be refused.

type legacyOp struct {
	Kind  opKind
	Table string
	PK    string
	Row   Row
	Def   TableDef
	Seq   string
	SeqV  int64
}

type legacySnapshot struct {
	Defs    []TableDef
	Rows    map[string][]Row
	Seqs    map[string]int64
	WALFrom int
}

// isLegacy reports whether b — a snapshot file or a WAL record — was
// written by gob: anything that does not open with recMagic.
func isLegacy(b []byte) bool { return len(b) > 0 && b[0] != recMagic }

// decodeLegacyRecord is decodeRecord for a gob record.
func decodeLegacyRecord(payload []byte, emit func(*walOp) error) error {
	var batch []legacyOp
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&batch); err != nil {
		return fmt.Errorf("gob: %w", err)
	}
	for _, old := range batch {
		op := walOp{kind: old.Kind, name: old.Table, row: old.Row, pk: old.PK, def: old.Def, seqV: old.SeqV}
		switch old.Kind {
		case opCreate:
			op.name = old.Def.Name
		case opSeq:
			op.name = old.Seq
		}
		if err := emit(&op); err != nil {
			return err
		}
	}
	return nil
}

// decodeLegacySnapshot is decodeSnapshot for a gob snapshot.
func decodeLegacySnapshot(data []byte, emit func(*walOp) error) (walFrom int, err error) {
	var snap legacySnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return 0, fmt.Errorf("gob: %w", err)
	}
	for name, v := range snap.Seqs {
		if err := emit(&walOp{kind: opSeq, name: name, seqV: v}); err != nil {
			return 0, err
		}
	}
	for _, def := range snap.Defs {
		if err := emit(&walOp{kind: opCreate, name: def.Name, def: def}); err != nil {
			return 0, err
		}
		for _, r := range snap.Rows[def.Name] {
			if err := emit(&walOp{kind: opPut, name: def.Name, row: r}); err != nil {
				return 0, err
			}
		}
	}
	return snap.WALFrom, nil
}

// GobEncode implements gob encoding for V (fields are unexported).
func (v V) GobEncode() ([]byte, error) { return v.appendEncoded(nil), nil }

// GobDecode implements gob decoding for V.
func (v *V) GobDecode(data []byte) error {
	r := reader{b: data}
	dec := r.value()
	if len(r.b) > 0 {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return fmt.Errorf("reldb: decode value: %w", r.err)
	}
	*v = dec
	return nil
}
