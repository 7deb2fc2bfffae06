package reldb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"orchestra/internal/codec"
	"orchestra/internal/wal"
)

// dbState is everything a database holds, in a shape reflect.DeepEqual can
// compare: rows keyed by table and pkEnc. V keeps a float as its bits, so a
// NaN equals itself here.
type dbState struct {
	Defs map[string]TableDef
	Rows map[string]map[string]Row
	Seqs map[string]int64
}

func newDBState() dbState {
	return dbState{Defs: map[string]TableDef{}, Rows: map[string]map[string]Row{}, Seqs: map[string]int64{}}
}

// stateOf reads an idle database's state.
func stateOf(db *DB) dbState {
	s := newDBState()
	for name, t := range db.tables {
		s.Defs[name] = t.def
		s.Rows[name] = map[string]Row{}
		for pk, row := range t.rows.All() {
			s.Rows[name][pk] = decodeRow(nil, row)
		}
	}
	for name, v := range db.seqs {
		s.Seqs[name] = v
	}
	return s
}

// walRecords returns the payload of every record in a database
// directory's log.
func walRecords(t testing.TB, dir string) [][]byte {
	t.Helper()
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out [][]byte
	if err := l.Replay(func(p []byte) error {
		out = append(out, bytes.Clone(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// reencode decodes a record, encoding every op it is handed back into a
// record.
func reencode(payload []byte, into []byte) ([]byte, error) {
	into = appendHeader(into)
	err := decodeRecord(payload, func(op *walOp) error {
		into = appendOp(into, op)
		return nil
	})
	return into, err
}

// TestWALRecordRoundTrip drives seeded random transactions over all five op
// kinds — with NULLs, empty strings and byte strings, the extreme ints, NaN
// and signed-zero floats, multi-column keys, and a share of transactions
// rolled back — against a durable database and a model of it. The log's
// records, decoded and applied to a fresh database, must rebuild the
// model's state, as must the checkpoint's snapshot; every record must
// re-encode to its own bytes.
func TestWALRecordRoundTrip(t *testing.T) {
	defs := []TableDef{
		{Name: "all", Key: []int{0}, Cols: []ColDef{
			{Name: "i", Type: ColInt}, {Name: "s", Type: ColString, Nullable: true},
			{Name: "f", Type: ColFloat, Nullable: true}, {Name: "b", Type: ColBool, Nullable: true},
			{Name: "y", Type: ColBytes, Nullable: true},
		}},
		{Name: "pair", Key: []int{2, 0}, Cols: []ColDef{
			{Name: "s", Type: ColString}, {Name: "f", Type: ColFloat}, {Name: "i", Type: ColInt},
		}},
		{Name: "bytes-and-bool", Key: []int{0, 1}, Cols: []ColDef{{Name: "y", Type: ColBytes}, {Name: "b", Type: ColBool}}},
	}
	rng := rand.New(rand.NewSource(24))
	pick := func(c ColDef) V {
		if c.Nullable && rng.Intn(4) == 0 {
			return Null()
		}
		switch c.Type {
		case ColInt:
			return Int([]int64{0, 1, -1, 127, 128, math.MaxInt64, math.MinInt64}[rng.Intn(7)])
		case ColString:
			return Str([]string{"", "a", "héllo", "\x00", strings.Repeat("long", 80)}[rng.Intn(5)])
		case ColFloat:
			return Float([]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1.5}[rng.Intn(5)])
		case ColBool:
			return Bool(rng.Intn(2) == 0)
		default:
			return Bytes([][]byte{nil, {0}, {0xff, 0}}[rng.Intn(3)])
		}
	}

	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	model := newDBState()
	rollback := errors.New("roll back")
	commits := 0
	for step := 0; step < 300; step++ {
		next := newDBState()
		for name, def := range model.Defs {
			next.Defs[name] = def
			next.Rows[name] = map[string]Row{}
			for pk, r := range model.Rows[name] {
				next.Rows[name][pk] = r
			}
		}
		for name, v := range model.Seqs {
			next.Seqs[name] = v
		}
		fail := rng.Intn(5) == 0
		wrote := false
		err := db.Update(func(tx *Tx) error {
			for n := 1 + rng.Intn(6); n > 0; n-- {
				def := defs[rng.Intn(len(defs))]
				_, exists := next.Defs[def.Name]
				switch op := rng.Intn(12); {
				case !exists:
					if err := tx.CreateTable(def); err != nil {
						return err
					}
					next.Defs[def.Name], next.Rows[def.Name] = def, map[string]Row{}
					wrote = true
				case op == 0:
					// A dropped table stays locked to the commit: drop it last.
					if err := tx.DropTable(def.Name); err != nil {
						return err
					}
					delete(next.Defs, def.Name)
					delete(next.Rows, def.Name)
					wrote, n = true, 1
				case op == 1:
					seq, by := []string{"epoch", ""}[rng.Intn(2)], 1+int64(rng.Intn(300))
					if _, err := tx.AdvanceSeq(seq, by); err != nil {
						return err
					}
					next.Seqs[seq] += by
					wrote = true
				default:
					r := make(Row, len(def.Cols))
					for i, c := range def.Cols {
						r[i] = pick(c)
					}
					pk := def.pkEnc(r)
					if _, had := next.Rows[def.Name][pk]; had && op < 5 {
						if _, err := tx.Delete(def.Name, r.project(def.Key)...); err != nil {
							return err
						}
						delete(next.Rows[def.Name], pk)
					} else {
						if err := tx.Upsert(def.Name, r); err != nil {
							return err
						}
						next.Rows[def.Name][pk] = r
					}
					wrote = true
				}
			}
			if fail {
				return rollback
			}
			return nil
		})
		if fail != errors.Is(err, rollback) || (!fail && err != nil) {
			t.Fatalf("step %d: Update = %v", step, err)
		}
		if !fail {
			model = next
			if wrote {
				commits++
			}
		}
	}
	if live := stateOf(db); !reflect.DeepEqual(live, model) {
		t.Fatalf("live database differs from the model:\n got %v\nwant %v", live, model)
	}

	records := walRecords(t, dir)
	if len(records) != commits {
		t.Fatalf("%d records in the log, %d transactions committed writes", len(records), commits)
	}
	replayed := MustOpenMemory()
	kinds := map[opKind]int{}
	for i, rec := range records {
		err := decodeRecord(rec, func(op *walOp) error {
			kinds[op.kind]++
			return replayed.replay(op)
		})
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if again, err := reencode(rec, nil); err != nil || !bytes.Equal(again, rec) {
			t.Fatalf("record %d re-encodes to\n%x, %v\nwas\n%x", i, again, err, rec)
		}
	}
	for k := opPut; k <= opDrop; k++ {
		if kinds[k] == 0 {
			t.Errorf("no op of kind %d in %d records: the test lost its coverage", k, len(records))
		}
	}
	if got := stateOf(replayed); !reflect.DeepEqual(got, model) {
		t.Fatalf("replayed records differ from the model:\n got %v\nwant %v", got, model)
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	restored := MustOpenMemory()
	if _, err := decodeSnapshot(snap, restored.replay); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(restored); !reflect.DeepEqual(got, model) {
		t.Fatalf("decoded snapshot differs from the model:\n got %v\nwant %v", got, model)
	}
	if again := restored.appendSnapshot(nil, 1); !bytes.Equal(again, snap) {
		t.Fatalf("snapshot re-encodes to %d different bytes", len(again))
	}
}

// goldenDB runs the transactions behind both golden byte strings.
func goldenDB(t testing.TB) (db *DB, dir string) {
	t.Helper()
	dir = t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, fn := range []func(tx *Tx) error{
		func(tx *Tx) error {
			return tx.CreateTable(TableDef{Name: "old", Cols: []ColDef{{Name: "k", Type: ColInt}}, Key: []int{0}})
		},
		// All five kinds in one record.
		func(tx *Tx) error {
			tx.CreateTable(TableDef{Name: "t", Key: []int{1, 0}, Cols: []ColDef{
				{Name: "s", Type: ColString}, {Name: "i", Type: ColInt},
				{Name: "f", Type: ColFloat, Nullable: true}, {Name: "b", Type: ColBool}, {Name: "y", Type: ColBytes, Nullable: true},
			}})
			tx.Insert("t", Row{Str("a"), Int(-1), Float(1.5), Bool(true), Bytes([]byte{0xff})})
			tx.Insert("t", Row{Str(""), Int(300), Null(), Bool(false), Null()})
			tx.Delete("t", Int(-1), Str("a"))
			tx.AdvanceSeq("epoch", 300)
			return tx.DropTable("old")
		},
	} {
		if err := db.Update(fn); err != nil {
			t.Fatal(err)
		}
	}
	return db, dir
}

// The format, as bytes. A change to either string is a format change: bump
// recVersion, refuse the old version in Open with an error naming the
// commits that upgrade it, keep the old strings as the refusal's fixtures,
// and update docs/STORAGE.md.
const (
	// magic, version 2, then: create "t" as id 1 (5 columns, key {1, 0}),
	// two puts into id 1, a delete from it by pkEnc, seq "epoch" = 300,
	// drop id 0 ("old").
	goldenRecord = "0002" +
		"030174" + "01" + "05" + "01730100" + "01690200" + "01660301" + "01620400" + "01790501" + "02" + "0100" +
		"01" + "01" + "05" + "010161" + "02ffffffffffffffffff01" + "0380808080808080fc3f" + "0401" + "0501ff" +
		"01" + "01" + "05" + "0100" + "02ac02" + "00" + "0400" + "00" +
		"02" + "01" + "0e" + "02ffffffffffffffffff01" + "010161" +
		"04" + "0565706f6368" + "ac02" +
		"05" + "00"
	// magic, version 2, WALFrom 1, one sequence, one table (name, id 1,
	// definition) with one row.
	goldenSnapshot = "0002" + "01" +
		"01" + "0565706f6368" + "ac02" +
		"01" + "0174" + "01" + "05" + "01730100" + "01690200" + "01660301" + "01620400" + "01790501" + "02" + "0100" +
		"01" + "05" + "0100" + "02ac02" + "00" + "0400" + "00"
	// The record that creates "old", the table goldenRecord drops.
	goldenCreate = "0002" + "03036f6c64" + "00" + "01" + "016b0200" + "01" + "00"

	// The same two files and create in version 1, which named the table in
	// every op and gave no ids: the fixtures of errVersion1Dir.
	goldenRecordV1 = "0001" +
		"030174" + "05" + "01730100" + "01690200" + "01660301" + "01620400" + "01790501" + "02" + "0100" +
		"010174" + "05" + "010161" + "02ffffffffffffffffff01" + "0380808080808080fc3f" + "0401" + "0501ff" +
		"010174" + "05" + "0100" + "02ac02" + "00" + "0400" + "00" +
		"020174" + "0e" + "02ffffffffffffffffff01" + "010161" +
		"04" + "0565706f6368" + "ac02" +
		"05036f6c64"
	goldenSnapshotV1 = "0001" + "01" +
		"01" + "0565706f6368" + "ac02" +
		"01" + "0174" + "05" + "01730100" + "01690200" + "01660301" + "01620400" + "01790501" + "02" + "0100" +
		"01" + "05" + "0100" + "02ac02" + "00" + "0400" + "00"
	goldenCreateV1 = "0001" + "03036f6c64" + "01" + "016b0200" + "01" + "00"
)

// replayHex decodes hex-encoded records, and a snapshot unless it is "",
// into a fresh in-memory database: the state the bytes describe.
func replayHex(t testing.TB, snapshot string, records ...string) *DB {
	t.Helper()
	db := MustOpenMemory()
	if snapshot != "" {
		snap, err := hex.DecodeString(snapshot)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeSnapshot(snap, db.replay); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range records {
		payload, err := hex.DecodeString(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeRecord(payload, db.replay); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestWALRecordGolden(t *testing.T) {
	db, dir := goldenDB(t)
	records := walRecords(t, dir)
	if got := hex.EncodeToString(records[len(records)-1]); got != goldenRecord {
		t.Errorf("record bytes changed:\n got %s\nwant %s", got, goldenRecord)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(snap); got != goldenSnapshot {
		t.Errorf("snapshot bytes changed:\n got %s\nwant %s", got, goldenSnapshot)
	}
	// And the checked-in bytes still open to the state that wrote them.
	want := stateOf(db)
	for _, fresh := range []*DB{
		replayHex(t, "", goldenCreate, goldenRecord),
		replayHex(t, goldenSnapshot),
	} {
		if got := stateOf(fresh); !reflect.DeepEqual(got, want) {
			t.Errorf("golden bytes decode to %v, want %v", got, want)
		}
	}
}

// TestPutRecordNamesTableByID pins what the format is for: a put names its
// table by id, so the WAL record of one Insert costs the same bytes
// whatever the table is called, and holds the row, not the name.
func TestPutRecordNamesTableByID(t *testing.T) {
	long := strings.Repeat("a_tenant_table_name_", 2)
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	row := Row{Int(1), Str("one"), Bool(true)}
	names := []string{long, "t"}
	if err := db.Update(func(tx *Tx) error {
		for _, name := range names {
			def := benchTable()
			def.Name = name
			if err := tx.CreateTable(def); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if err := db.Update(func(tx *Tx) error { return tx.Insert(name, row) }); err != nil {
			t.Fatal(err)
		}
	}
	records := walRecords(t, dir)
	if len(records) != 3 {
		t.Fatalf("%d records, want a create and two puts", len(records))
	}
	byLong, byShort := records[1], records[2]
	if len(byLong) != len(byShort) {
		t.Errorf("a put into a %d-byte name is %d bytes, into %q %d", len(long), len(byLong), "t", len(byShort))
	}
	for i, rec := range [][]byte{byLong, byShort} {
		if bytes.Contains(rec, []byte(long)) {
			t.Errorf("put record %x holds the table's name", rec)
		}
		want := appendRow(binary.AppendUvarint(append(appendHeader(nil), byte(opPut)), db.tables[names[i]].id), row)
		if !bytes.Equal(rec, want) {
			t.Errorf("put into %q is\n%x, want header, kind, id, row:\n%x", names[i], rec, want)
		}
	}
}

// writeDir lays out a database directory by hand: snapshot.db unless it is
// nil, then one WAL segment per element of segments, numbered from 0, each
// holding the hex-encoded records given.
func writeDir(t *testing.T, dir string, snapshot []byte, segments ...[]string) {
	t.Helper()
	if snapshot != nil {
		if err := os.WriteFile(filepath.Join(dir, snapshotFile), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, seg := range segments {
		if i > 0 {
			if _, err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		for _, rec := range seg {
			payload, err := hex.DecodeString(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRefuseVersion1Dir: a directory in version 1 of the record format —
// a snapshot.db, or a first live WAL record, whose header says version 1,
// the golden strings of that version laid out as the directories the
// releases before version 2 left — makes Open return errVersion1Dir, which
// names the commits able to upgrade it, and leaves every file in the
// directory as it was. An upgrade those releases cut after installing its
// version-2 snapshot is no longer version 1: the stale segments lie below
// the snapshot's mark, and it opens.
func TestRefuseVersion1Dir(t *testing.T) {
	snapV1, err := hex.DecodeString(goldenSnapshotV1)
	if err != nil {
		t.Fatal(err)
	}
	snapV2, err := hex.DecodeString(goldenSnapshot) // marked past segment 0
	if err != nil {
		t.Fatal(err)
	}
	logV1 := []string{goldenCreateV1, goldenRecordV1}
	for _, tc := range []struct {
		name     string
		snapshot []byte
		segments [][]string
		opens    bool
	}{
		{name: "snapshot", snapshot: snapV1},
		{name: "log", segments: [][]string{logV1}},
		{name: "snapshot under a log", snapshot: snapV1, segments: [][]string{nil, {goldenRecordV1}}},
		{name: "log over a version-2 snapshot", snapshot: replayHex(t, goldenSnapshot).appendSnapshot(nil, 0), segments: [][]string{logV1}},
		{name: "upgrade cut after the seal", segments: [][]string{logV1, nil}},
		{name: "upgrade cut after the install", snapshot: snapV2, segments: [][]string{logV1}, opens: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeDir(t, dir, tc.snapshot, tc.segments...)
			before := dirBytes(t, dir)
			db, err := Open(Options{Dir: dir})
			if tc.opens {
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if got, want := stateOf(db), stateOf(replayHex(t, goldenSnapshot)); !reflect.DeepEqual(got, want) {
					t.Errorf("state %v, want %v", got, want)
				}
				return
			}
			if err == nil {
				db.Close()
				t.Fatal("Open accepted a version-1 directory")
			}
			if !errors.Is(err, errVersion1Dir) || !strings.Contains(err.Error(), "eba415a") {
				t.Errorf("Open = %v, want errVersion1Dir naming commit eba415a", err)
			}
			if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("a refused Open changed the directory:\n got %q\nwant %q", after, before)
			}
		})
	}
}

// TestDecodedRecordOwnsItsBytes pins the rule wal.Replay relies on: a
// replayed payload is a slice of the whole segment buffer, so nothing the
// decoder emits may point into it. Overwriting the input after the decode
// must leave every emitted op — names, rows, keys, table definitions — as
// it was.
func TestDecodedRecordOwnsItsBytes(t *testing.T) {
	rec, err := hex.DecodeString(goldenRecord)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(payload []byte) []walOp {
		var ops []walOp
		if err := decodeRecord(payload, func(op *walOp) error {
			ops = append(ops, *op)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return ops
	}
	buf := bytes.Clone(rec)
	got := decode(buf)
	for i := range buf {
		buf[i] = 0xff
	}
	if want := decode(rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("overwriting the input changed the decoded ops:\n got %+v\nwant %+v", got, want)
	}
}

// allocatedBy returns the heap bytes fn allocated. The fuzz engine runs one
// input at a time per worker process, so nothing else allocates meanwhile.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeBudget bounds what decoding n input bytes may allocate: a row is
// one copy of its bytes, and the costliest byte is a key index or a column
// definition's, which becomes an 8-byte int or part of a ColDef, so a
// small multiple of the input plus room for the reader itself. A count the decoder believed without checking it against the
// input would overshoot this by orders of magnitude.
func decodeBudget(n int) uint64 { return 1<<14 + 64*uint64(n) }

// FuzzDecodeWALRecord hands the record decoder arbitrary bytes, starting
// from testdata/fuzz (the golden record among its seeds, and version-1
// seeds, which it now refuses). It must never panic — not in the decoder,
// and not in replay when the ops are applied to an empty database — never
// allocate more than decodeBudget, and whatever it accepts must re-encode
// to the same bytes: the format has one encoding of every record.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var again []byte
		var err error
		buf := make([]byte, 0, len(data)+2)
		if got := allocatedBy(func() { again, err = reencode(data, buf) }); got > decodeBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err == nil && !bytes.Equal(again, data) {
			t.Fatalf("accepted\n%x\nwhich re-encodes to\n%x", data, again)
		}
		db := MustOpenMemory()
		if applied := decodeRecord(data, db.replay); applied == nil && err != nil {
			t.Fatalf("replay accepted a record the decoder refuses: %v", err)
		}
	})
}

// FuzzDecodeSnapshotDB is the same for snapshot.db. A snapshot's tables and
// rows may come in any order and the writer sorts them, so the fixed point
// is one step away: what decodes must encode to bytes that decode to the
// same state and encode to themselves.
func FuzzDecodeSnapshotDB(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		db := MustOpenMemory()
		var walFrom int
		var err error
		// Applying builds maps, which the budget does not cover: measure the
		// decoder alone first.
		discard := func(*walOp) error { return nil }
		if got := allocatedBy(func() { decodeSnapshot(data, discard) }); got > decodeBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if walFrom, err = decodeSnapshot(data, db.replay); err != nil {
			return
		}
		first := db.appendSnapshot(nil, walFrom)
		db2 := MustOpenMemory()
		walFrom2, err := decodeSnapshot(first, db2.replay)
		if err != nil || walFrom2 != walFrom {
			t.Fatalf("re-encoded snapshot: walFrom %d (was %d), %v", walFrom2, walFrom, err)
		}
		if !reflect.DeepEqual(stateOf(db2), stateOf(db)) {
			t.Fatalf("re-encoded snapshot decodes to a different state")
		}
		if second := db2.appendSnapshot(nil, walFrom); !bytes.Equal(second, first) {
			t.Fatalf("snapshot encoding is not a fixed point:\n%x\n%x", first, second)
		}
	})
}

// TestReplayRejectsMalformed opens directories whose log or snapshot passes
// every checksum and is still wrong. Recovery must return an error — it
// used to put a replayed row unchecked, and a row shorter than the table's
// key died in Row.project with "index out of range".
func TestReplayRejectsMalformed(t *testing.T) {
	cols := []ColDef{{Name: "a", Type: ColInt}, {Name: "b", Type: ColInt}}
	keyOnB := TableDef{Name: "t", Cols: cols, Key: []int{1}}
	keyPastCols := TableDef{Name: "t", Cols: cols, Key: []int{2}}
	short, typed := Row{Int(1)}, Row{Int(1), Str("not an int")}

	// The table "t" is id 0 and a put names it; put(1, …) names an id no
	// create gave.
	header := func() []byte { return appendHeader(nil) }
	record := func(ops ...walOp) []byte {
		b := header()
		for i := range ops {
			b = appendOp(b, &ops[i])
		}
		return b
	}
	create := func(def TableDef, id uint64) walOp {
		return walOp{kind: opCreate, id: id, name: def.Name, def: def}
	}
	put := func(id uint64, r Row) walOp {
		return walOp{kind: opPut, id: id, row: string(appendRow(nil, r))}
	}
	// snapshot is one table, id 0, and its rows, with no regard for
	// whether they fit.
	snapshot := func(def TableDef, rows ...Row) []byte {
		b := append(header(), 0, 0, 1)
		b = append(codec.AppendStr(b, def.Name), 0)
		b = appendDef(b, &def)
		b = append(b, byte(len(rows)))
		for _, r := range rows {
			b = appendRow(b, r)
		}
		return b
	}
	good := record(create(keyOnB, 0), put(0, Row{Int(1), Int(2)}))
	other := TableDef{Name: "u", Cols: cols, Key: []int{0}}
	for _, tc := range []struct {
		name     string
		snapshot []byte
		records  [][]byte
		want     string
	}{
		{name: "record: row shorter than the key", records: [][]byte{record(create(keyOnB, 0), put(0, short))}, want: "row has 1 columns"},
		{name: "record: row of the wrong type", records: [][]byte{record(create(keyOnB, 0), put(0, typed))}, want: "has type string"},
		{name: "record: key past the columns", records: [][]byte{record(create(keyPastCols, 0))}, want: "key column 2 out of range"},
		{name: "record: put into no table", records: [][]byte{record(put(0, short))}, want: "no such table"},
		{name: "record: duplicate create", records: [][]byte{good, record(create(keyOnB, 1))}, want: "duplicate table t"},
		{name: "record: unknown kind", records: [][]byte{append(bytes.Clone(good), 9, 0)}, want: "unknown op kind"},
		{name: "record: unknown version", records: [][]byte{{recMagic, recVersion + 1}}, want: "unknown format version"},
		{name: "record: truncated", records: [][]byte{good[:len(good)-1]}, want: "truncated"},
		{name: "record: count past the end", records: [][]byte{append(header(), byte(opPut), 0, 200, 1)}, want: "length past the end"},
		{name: "record: padded varint", records: [][]byte{append(header(), byte(opSeq), 0, 0x80, 0)}, want: "malformed varint"},
		{name: "record: gob after the first record", records: [][]byte{good, gobRecord(t)}, want: "bad magic"},
		{name: "record: put naming an unknown id", records: [][]byte{good, record(put(1, Row{Int(1), Int(2)}))}, want: "no such table: id 1"},
		{name: "record: create reusing an id", records: [][]byte{good, record(create(other, 0))}, want: "duplicate table id 0"},
		{name: "record: drop naming an unknown id", records: [][]byte{good, record(walOp{kind: opDrop, id: 7})}, want: "no such table: id 7"},
		{name: "record: table id out of range", records: [][]byte{binary.AppendUvarint(append(header(), byte(opDrop)), math.MaxInt64+1)}, want: "table id out of range"},
		{name: "snapshot: row shorter than the key", snapshot: snapshot(keyOnB, short), want: "row has 1 columns"},
		{name: "snapshot: key past the columns", snapshot: snapshot(keyPastCols), want: "key column 2 out of range"},
		{name: "snapshot: trailing bytes", snapshot: append(snapshot(keyOnB), 0), want: "trailing bytes"},
		{name: "snapshot: empty file", snapshot: []byte{}, want: "truncated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.snapshot != nil {
				if err := os.WriteFile(filepath.Join(dir, snapshotFile), tc.snapshot, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range tc.records {
				if err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			db, err := Open(Options{Dir: dir})
			if err == nil {
				db.Close()
				t.Fatal("Open accepted the directory")
			}
			if msg := err.Error(); !strings.HasPrefix(msg, "reldb: recovery: ") || !strings.Contains(msg, tc.want) {
				t.Errorf("Open = %q, want a reldb: recovery: error about %q", msg, tc.want)
			}
		})
	}
}

// gobRecord is a WAL record as directories written before this format hold
// them: a gob-encoded op list (the shape of the time, trimmed to two fields).
func gobRecord(t *testing.T) []byte {
	t.Helper()
	type gobOp struct {
		Kind  opKind
		Table string
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode([]gobOp{{Kind: opDrop, Table: "t"}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dirBytes returns every file under dir with its contents.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRefuseGobDir: a directory written in the gob format — a snapshot.db,
// or a first live WAL record, that does not open with recMagic — makes Open
// return errGobDir, which names the last release able to upgrade it, and
// leaves every file in the directory as it was.
func TestRefuseGobDir(t *testing.T) {
	gobSnapshot := gobRecord(t) // any gob stream: Open tells by the first byte
	good := appendOp(appendHeader(nil), &walOp{kind: opSeq, name: "epoch", seqV: 3})
	for _, tc := range []struct {
		name     string
		snapshot []byte
		records  [][]byte
	}{
		{name: "gob snapshot", snapshot: gobSnapshot, records: [][]byte{gobRecord(t)}},
		{name: "gob snapshot over an empty log", snapshot: gobSnapshot},
		{name: "gob log, no snapshot", records: [][]byte{gobRecord(t), gobRecord(t)}},
		{name: "gob log over a snapshot", snapshot: MustOpenMemory().appendSnapshot(nil, 0), records: [][]byte{gobRecord(t), good}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.snapshot != nil {
				if err := os.WriteFile(filepath.Join(dir, snapshotFile), tc.snapshot, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.records != nil {
				l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range tc.records {
					if err := l.Append(rec); err != nil {
						t.Fatal(err)
					}
				}
				l.Close()
			}
			before := dirBytes(t, dir)
			db, err := Open(Options{Dir: dir})
			if err == nil {
				db.Close()
				t.Fatal("Open accepted a gob directory")
			}
			if !errors.Is(err, errGobDir) || !strings.Contains(err.Error(), "a794feb") {
				t.Errorf("Open = %v, want errGobDir naming commit a794feb", err)
			}
			if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("a refused Open changed the directory:\n got %q\nwant %q", after, before)
			}
		})
	}
}
