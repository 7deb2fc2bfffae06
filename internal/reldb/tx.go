package reldb

import (
	"fmt"

	"orchestra/internal/spread"
)

// Tx is a transaction handle passed to View/Update callbacks, valid only
// until the callback returns: the DB reuses it for a later transaction. A
// writable transaction write-locks each table at first touch and holds the
// lock to commit (strict two-phase locking), encoding its WAL record as it
// goes and keeping a typed undo list for rollback; a read-only transaction
// read-locks tables at first touch and holds the locks until the View
// returns. Reads always see the transaction's own writes.
//
// A written row is encoded once, into the one string that the table
// stores, the WAL record copies, the undo list restores and Checkpoint
// writes.
type Tx struct {
	db       *DB
	writable bool
	// tabs are the locked tables, in acquisition order; lookups scan this
	// slice first (transactions touch a handful of tables at most).
	tabs    []*table
	created []*table // tables created by this tx (pending until commit)
	seqHeld bool
	// rec is the transaction's WAL record so far: the header, then every
	// write already encoded (record.go). commit hands it to the log as is.
	rec  []byte
	undo []undoOp
	// buf is scratch for encoding a row or a lookup's key.
	buf  []byte
	wait commitWait
}

// Past these sizes a finished transaction's record buffer or undo list is
// dropped rather than kept for the next one, so that one bulk transaction
// does not pin its memory in the pool.
const (
	maxPooledRec  = 64 << 10
	maxPooledUndo = 1024
)

// undoOp is one typed rollback step; undos run in reverse append order.
type undoOp struct {
	kind undoKind
	t    *table
	pk   string
	row  string // a stored row
	seq  string
	seqV int64
}

type undoKind uint8

const (
	undoPut     undoKind = iota + 1 // re-put row into t (reverses delete/replace)
	undoDelete                      // delete pk from t (reverses insert)
	undoSeq                         // restore sequence seq to seqV
	undoDrop                        // drop the created table t
	undoRestore                     // re-register the dropped table t
)

// table resolves a table and, on first touch, acquires its lock in the
// transaction's mode.
func (tx *Tx) table(name string) (*table, error) {
	for _, t := range tx.tabs {
		if t.def.Name == name {
			return t, nil
		}
	}
	t := tx.db.resolve(name, tx)
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	tx.lockTable(t)
	return t, nil
}

// lockTable acquires t's lock in the transaction's mode and records it for
// release. Tables created by this transaction are invisible to others and
// are not locked.
func (tx *Tx) lockTable(t *table) {
	if t.pending == tx {
		tx.tabs = append(tx.tabs, t)
		return
	}
	if tx.writable {
		if !t.mu.TryLock() {
			tx.db.counters.ObserveTableWait()
			t.mu.Lock()
		}
	} else {
		if !t.mu.TryRLock() {
			tx.db.counters.ObserveTableWait()
			t.mu.RLock()
		}
	}
	tx.tabs = append(tx.tabs, t)
}

// lockSeqs acquires the sequence lock on first touch (held to release) —
// exclusively for writable transactions, shared for read-only ones.
func (tx *Tx) lockSeqs() {
	if tx.seqHeld {
		return
	}
	if tx.writable {
		tx.db.seqMu.Lock()
	} else {
		tx.db.seqMu.RLock()
	}
	tx.seqHeld = true
}

// release unlocks everything the transaction holds and empties it for
// reuse, keeping no table or row reachable; called exactly once, after
// commit or rollback (Update) or after fn returns (View).
func (tx *Tx) release() {
	for _, t := range tx.tabs {
		if t.pending == tx {
			continue
		}
		if tx.writable {
			t.mu.Unlock()
		} else {
			t.mu.RUnlock()
		}
	}
	clear(tx.tabs)
	tx.tabs = tx.tabs[:0]
	if len(tx.created) > 0 {
		tx.db.tablesMu.Lock()
		for _, t := range tx.created {
			if t.pending == tx { // still pending: commit publishes, rollback removed it
				t.pending = nil
			}
		}
		tx.db.tablesMu.Unlock()
		clear(tx.created)
		tx.created = tx.created[:0]
	}
	tx.rec = tx.rec[:0]
	if cap(tx.rec) > maxPooledRec {
		tx.rec = nil
	}
	clear(tx.undo)
	tx.undo = tx.undo[:0]
	if cap(tx.undo) > maxPooledUndo {
		tx.undo = nil
	}
	if cap(tx.buf) > maxPooledRec {
		tx.buf = nil
	}
	if tx.seqHeld {
		if tx.writable {
			tx.db.seqMu.Unlock()
		} else {
			tx.db.seqMu.RUnlock()
		}
		tx.seqHeld = false
	}
}

func (tx *Tx) requireWritable() error {
	if !tx.writable {
		return fmt.Errorf("reldb: write inside a read-only transaction")
	}
	return nil
}

// logOp encodes op onto the transaction's WAL record; in-memory databases
// skip the record (and its allocations) entirely since commit would discard
// it.
func (tx *Tx) logOp(op walOp) {
	if tx.db.log == nil {
		return
	}
	if len(tx.rec) == 0 {
		tx.rec = appendHeader(tx.rec)
	}
	tx.rec = appendOp(tx.rec, &op)
}

// CreateTable declares a new table. The table becomes visible to other
// transactions when this one commits; DDL is not otherwise isolated from
// concurrent DML, so declare tables before going concurrent (the central
// store does all DDL at open).
func (tx *Tx) CreateTable(def TableDef) error {
	if err := tx.requireWritable(); err != nil {
		return err
	}
	if err := def.validate(); err != nil {
		return err
	}
	tx.db.tablesMu.Lock()
	if _, dup := tx.db.tables[def.Name]; dup {
		tx.db.tablesMu.Unlock()
		return fmt.Errorf("reldb: table %s already exists", def.Name)
	}
	// A rollback leaves the id unused: ids are never reused.
	t := newTable(def, tx.db.nextID)
	tx.db.nextID++
	t.pending = tx
	tx.db.addTable(t)
	tx.db.tablesMu.Unlock()
	tx.created = append(tx.created, t)
	tx.tabs = append(tx.tabs, t)
	tx.undo = append(tx.undo, undoOp{kind: undoDrop, t: t})
	tx.logOp(walOp{kind: opCreate, id: t.id, name: def.Name, def: def})
	return nil
}

// DropTable removes a table and all its rows. Like CreateTable, DDL is not
// isolated from concurrent DML: drop a table only while no concurrent
// transaction can touch it (the central store drops a tenant's tables only
// after the tenant is closed and drained). The dropped table stays locked
// by this transaction until commit; re-creating the same name within the
// same transaction is not supported.
func (tx *Tx) DropTable(name string) error {
	if err := tx.requireWritable(); err != nil {
		return err
	}
	t, err := tx.table(name)
	if err != nil {
		return err
	}
	tx.db.tablesMu.Lock()
	tx.db.removeTable(t)
	tx.db.tablesMu.Unlock()
	tx.undo = append(tx.undo, undoOp{kind: undoRestore, t: t})
	tx.logOp(walOp{kind: opDrop, id: t.id})
	return nil
}

// HasTable reports whether a table exists (and is visible to this
// transaction).
func (tx *Tx) HasTable(name string) bool {
	return tx.db.resolve(name, tx) != nil
}

// Insert adds a row; it fails with ErrDuplicateKey if the primary key is
// already present.
func (tx *Tx) Insert(tableName string, r Row) error {
	return tx.write(tableName, r, false)
}

// Upsert adds or replaces the row with the same primary key.
func (tx *Tx) Upsert(tableName string, r Row) error {
	return tx.write(tableName, r, true)
}

func (tx *Tx) write(tableName string, r Row, replace bool) error {
	if err := tx.requireWritable(); err != nil {
		return err
	}
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	if err := t.def.checkRow(r); err != nil {
		return err
	}
	tx.buf = appendRow(tx.buf[:0], r)
	row := string(tx.buf)
	pk := t.def.keyOf(row)
	old, existed := t.rows.Swap(pk, row)
	if existed && !replace {
		t.rows.Set(pk, old)
		return fmt.Errorf("%w: table %s", ErrDuplicateKey, tableName)
	}
	if existed {
		tx.undo = append(tx.undo, undoOp{kind: undoPut, t: t, row: old})
	} else {
		tx.undo = append(tx.undo, undoOp{kind: undoDelete, t: t, pk: pk})
	}
	tx.logOp(walOp{kind: opPut, id: t.id, row: row})
	return nil
}

// Delete removes the row with the given primary-key values, reporting
// whether it existed.
func (tx *Tx) Delete(tableName string, key ...V) (bool, error) {
	if err := tx.requireWritable(); err != nil {
		return false, err
	}
	t, err := tx.table(tableName)
	if err != nil {
		return false, err
	}
	tx.buf = appendVals(tx.buf[:0], key)
	old, ok := spread.GetBytes(&t.rows, tx.buf)
	if !ok {
		return false, nil
	}
	pk := t.def.keyOf(old)
	t.rows.Delete(pk)
	tx.undo = append(tx.undo, undoOp{kind: undoPut, t: t, row: old})
	tx.logOp(walOp{kind: opDelete, id: t.id, pk: pk})
	return true, nil
}

// Get fetches the row with the given primary-key values, as a Row of its
// own; its string and bytes values share the stored row's bytes.
func (tx *Tx) Get(tableName string, key ...V) (Row, bool, error) {
	t, err := tx.table(tableName)
	if err != nil {
		return nil, false, err
	}
	tx.buf = appendVals(tx.buf[:0], key)
	row, ok := spread.GetBytes(&t.rows, tx.buf)
	if !ok {
		return nil, false, nil
	}
	n, _ := rowCols(row)
	return decodeRow(make(Row, 0, n), row), true, nil
}

// Count returns the number of rows in the table.
func (tx *Tx) Count(tableName string) (int, error) {
	t, err := tx.table(tableName)
	if err != nil {
		return 0, err
	}
	return t.rows.Len(), nil
}

// Scan visits every row, in no particular order, until fn returns false:
// callers that need an order sort what they collect. Every row is decoded
// into the one Row this call hands fn each time, so fn may keep the
// values but not the Row: copy it to keep it. A string or bytes value
// shares the stored row's bytes, which no later write changes — a write
// stores a fresh row.
func (tx *Tx) Scan(tableName string, fn func(r Row) bool) error {
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	r := make(Row, 0, len(t.def.Cols))
	for _, row := range t.rows.All() {
		if r = decodeRow(r, row); !fn(r) {
			break
		}
	}
	return nil
}

// NextSeq increments and returns the named sequence (starting at 1), like
// an SQL sequence; used by the central store for the epoch counter.
func (tx *Tx) NextSeq(name string) (int64, error) {
	return tx.AdvanceSeq(name, 1)
}

// AdvanceSeq advances the named sequence by the given positive amount and
// returns the new value — the multi-epoch allocator's block refill: one
// durable commit hands out `by` values at once.
func (tx *Tx) AdvanceSeq(name string, by int64) (int64, error) {
	if err := tx.requireWritable(); err != nil {
		return 0, err
	}
	if by <= 0 {
		return 0, fmt.Errorf("reldb: AdvanceSeq by %d", by)
	}
	tx.lockSeqs()
	prev := tx.db.seqs[name]
	next := prev + by
	tx.db.seqs[name] = next
	tx.undo = append(tx.undo, undoOp{kind: undoSeq, seq: name, seqV: prev})
	tx.logOp(walOp{kind: opSeq, name: name, seqV: next})
	return next, nil
}

// CurrentSeq returns the named sequence's current value without advancing.
// Like tables, the sequence namespace is locked at first touch and held to
// the end of the transaction, so it participates in the same lock-order
// contract.
func (tx *Tx) CurrentSeq(name string) int64 {
	tx.lockSeqs()
	return tx.db.seqs[name]
}

// rollback undoes every buffered write in reverse order; the transaction
// still holds its locks, and release empties it.
func (tx *Tx) rollback() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := &tx.undo[i]
		switch u.kind {
		case undoPut:
			u.t.put(u.row)
		case undoDelete:
			u.t.rows.Delete(u.pk)
		case undoSeq:
			tx.db.seqs[u.seq] = u.seqV
		case undoDrop:
			tx.db.tablesMu.Lock()
			tx.db.removeTable(u.t)
			tx.db.tablesMu.Unlock()
		case undoRestore:
			tx.db.tablesMu.Lock()
			tx.db.addTable(u.t)
			tx.db.tablesMu.Unlock()
		}
	}
}

// commit hands the transaction's record to the WAL through the group
// committer, rolling back on a logging failure. Locks are released
// by the caller afterwards, so a transaction's WAL record is durably
// ordered before any conflicting transaction can even start. The commit
// counter moves only after the append succeeded — a rolled-back
// transaction is not a commit.
func (tx *Tx) commit() error {
	if len(tx.rec) == 0 {
		if len(tx.undo) > 0 {
			tx.db.counters.ObserveCommit()
		}
		return nil
	}
	tx.wait.payload = tx.rec
	appended, err := tx.db.gc.commit(&tx.wait)
	tx.wait.payload = nil
	if !appended {
		// Nothing durable (the failed group was truncated away): roll
		// back so memory and log agree.
		tx.rollback()
		return err
	}
	tx.db.counters.ObserveCommit()
	// A sync failure after a successful append keeps the state — the
	// record is in the log and will replay — and surfaces the error.
	return err
}
