// Package reldb is a small relational storage engine: typed tables keyed
// by primary key (a map per table; lookups by full key, unordered scans),
// atomic read-write transactions with rollback, named sequences, and
// durability through a write-ahead log plus snapshot checkpoints (package
// wal).
//
// # Concurrency
//
// The engine is a genuinely concurrent store (see docs/STORAGE.md for the
// full contract):
//
//   - Each table carries its own RWMutex. A write transaction (Update)
//     write-locks every table it touches — for reads as well as writes —
//     at first touch and holds the locks until commit or rollback (strict
//     two-phase locking). A read transaction (View) read-locks tables at
//     first touch and holds them until the View returns, so it sees a
//     stable snapshot of every table it reads.
//   - Transactions that touch disjoint tables run fully in parallel. The
//     engine does not detect deadlock: transactions that touch overlapping
//     table sets MUST touch them in a consistent global order (the
//     lock-order contract; the central store's order is documented in
//     docs/STORAGE.md).
//   - Sequences live behind one sequence lock, held to commit by any
//     writer that touches them.
//   - Close and Checkpoint quiesce the database: they take the state lock
//     exclusively, which every transaction holds shared for its duration.
//
// # Durability
//
// Commit appends the transaction's operations to the WAL as one record,
// encoded write by write as the transaction runs in the engine's own binary
// format (record.go; Checkpoint's snapshot file shares it); recovery
// replays records in append order, checking every definition and row it
// applies, and truncates any torn tail. A directory written in the earlier
// gob format is refused (errGobDir).
// Concurrent committers hand their records to a shared flusher: the first
// committer to arrive becomes the leader and writes every record queued by
// then with one WAL write and at most one fsync — commits per flush is the
// win, visible through Metrics(). Group commit changes durability batching
// only, never atomicity, isolation, or recovery semantics.
package reldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"orchestra/internal/metrics"
	"orchestra/internal/wal"
)

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("reldb: database closed")

// ErrDuplicateKey is returned when an insert would create a duplicate
// primary key.
var ErrDuplicateKey = errors.New("reldb: duplicate key")

// ErrNoTable is returned for operations on undeclared tables.
var ErrNoTable = errors.New("reldb: no such table")

const snapshotFile = "snapshot.db"

// DB is the database handle. All access goes through View (shared) and
// Update (exclusive per touched table) transactions; an Update is atomic
// (rolled back on error) and durable (WAL-appended at commit) when the DB
// was opened with a directory.
type DB struct {
	// stateMu quiesces the database: every transaction holds it shared for
	// its whole duration; Close and Checkpoint take it exclusively.
	stateMu sync.RWMutex
	closed  bool

	dir  string
	log  *wal.Log
	sync bool
	gc   *groupCommitter

	// tablesMu guards the tables map itself; each table's data is guarded
	// by the table's own lock.
	tablesMu sync.RWMutex
	tables   map[string]*table

	// seqMu guards seqs like a table lock: writers that touch sequences
	// hold it exclusively to commit, read-only transactions hold it
	// shared to the end of the View.
	seqMu sync.RWMutex
	seqs  map[string]int64

	counters metrics.DBCounters
}

type table struct {
	// mu is the table lock: Update transactions hold it exclusively from
	// first touch to commit, View transactions hold it shared.
	mu  sync.RWMutex
	def TableDef
	// rows is keyed by TableDef.pkEnc of the row.
	rows map[string]Row
	// pending is non-nil while the transaction that created this table is
	// still uncommitted; other transactions treat the table as absent.
	pending *Tx
}

func newTable(def TableDef) *table {
	return &table{def: def, rows: make(map[string]Row)}
}

// Options configure a DB.
type Options struct {
	// Dir is the durability directory; empty means a volatile in-memory
	// database.
	Dir string
	// SyncOnCommit fsyncs the WAL once per group flush (see groupCommitter),
	// before any commit the flush carried returns.
	SyncOnCommit bool
}

// Open opens (or creates) a database, recovering from the snapshot and WAL
// if present.
func Open(opts Options) (*DB, error) {
	db := &DB{
		dir:    opts.Dir,
		sync:   opts.SyncOnCommit,
		tables: make(map[string]*table),
		seqs:   make(map[string]int64),
	}
	if opts.Dir == "" {
		return db, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("reldb: %w", err)
	}
	walFrom, err := db.loadSnapshot()
	if err != nil {
		return nil, err
	}
	l, err := wal.Open(filepath.Join(opts.Dir, "wal"), wal.Options{})
	if err != nil {
		return nil, err
	}
	db.log = l
	// Finish the drop a crashed Checkpoint may have left undone: segments
	// below the snapshot's mark are already in the snapshot, and replaying
	// them over it would fail on the first create or drop they hold.
	if err := l.RemoveBefore(walFrom); err != nil {
		l.Close()
		return nil, err
	}
	first := true
	if err := l.Replay(func(payload []byte) error {
		// The first live record tells, as the snapshot's first byte does,
		// whether gob wrote this directory; past it a gob record is
		// corruption like any other.
		if first && writtenByGob(payload) {
			return errGobDir
		}
		first = false
		if err := decodeRecord(payload, db.replay); err != nil {
			return fmt.Errorf("reldb: recovery: wal record: %w", err)
		}
		return nil
	}); err != nil {
		l.Close()
		return nil, err
	}
	db.gc = &groupCommitter{db: db}
	return db, nil
}

// errGobDir refuses a directory written before the record format of
// record.go, when snapshot.db and every WAL record were gob streams. Open
// tells one by the first byte of snapshot.db, or of the first live WAL
// record, and returns this before it replays anything. The releases from
// commit 85f5c48 through a794feb read such a directory and rewrite it in
// this format on their first Open.
var errGobDir = errors.New("reldb: directory written in the gob format, which this release no longer reads; open it once with a release from commit 85f5c48 through a794feb (the last), which upgrades it")

// writtenByGob reports whether b, a snapshot file or a WAL record, is a gob
// stream: anything that does not open with recMagic.
func writtenByGob(b []byte) bool { return len(b) > 0 && b[0] != recMagic }

// MustOpenMemory returns a volatile in-memory database, panicking on error;
// for tests and examples.
func MustOpenMemory() *DB {
	db, err := Open(Options{})
	if err != nil {
		panic(err)
	}
	return db
}

// Metrics exposes the engine's commit and contention counters.
func (db *DB) Metrics() *metrics.DBCounters { return &db.counters }

// Close flushes and closes the database, waiting for in-flight
// transactions to finish.
func (db *DB) Close() error {
	db.stateMu.Lock()
	defer db.stateMu.Unlock()
	if db.closed {
		return ErrClosed
	}
	db.closed = true
	if db.log != nil {
		return db.log.Close()
	}
	return nil
}

// View runs fn with shared read access: every table fn touches is
// read-locked from first touch until fn returns.
func (db *DB) View(fn func(tx *Tx) error) error {
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	tx := &Tx{db: db}
	err := fn(tx)
	tx.release()
	return err
}

// Update runs fn with exclusive access to every table it touches; all
// writes are applied atomically (rolled back if fn errors) and logged to
// the WAL at commit. Concurrent Updates on disjoint tables proceed in
// parallel; see the package comment for the lock-order contract.
func (db *DB) Update(fn func(tx *Tx) error) error {
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	tx := &Tx{db: db, writable: true}
	if err := fn(tx); err != nil {
		tx.rollback()
		tx.release()
		return err
	}
	err := tx.commit()
	tx.release()
	return err
}

// resolve returns the named table if it exists and is visible to tx
// (pending tables are visible only to their creating transaction).
func (db *DB) resolve(name string, tx *Tx) *table {
	db.tablesMu.RLock()
	t := db.tables[name]
	if t != nil && t.pending != nil && t.pending != tx {
		t = nil
	}
	db.tablesMu.RUnlock()
	return t
}

// TableNames returns the declared tables, unsorted.
func (db *DB) TableNames() []string {
	db.tablesMu.RLock()
	defer db.tablesMu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n, t := range db.tables {
		if t.pending != nil {
			continue
		}
		out = append(out, n)
	}
	return out
}

// TableDef returns a table's definition.
func (db *DB) TableDef(name string) (TableDef, bool) {
	db.tablesMu.RLock()
	defer db.tablesMu.RUnlock()
	t, ok := db.tables[name]
	if !ok || t.pending != nil {
		return TableDef{}, false
	}
	return t.def, true
}

// replay applies one logged operation without re-logging it; recovery
// feeds it every op of the snapshot and then of the log. The bytes came
// from disk, so a created definition and a put row are checked exactly as
// CreateTable and Insert check them. Open is single-threaded, so no locks
// are taken here.
func (db *DB) replay(op *walOp) error {
	switch op.kind {
	case opCreate:
		if err := op.def.validate(); err != nil {
			return err
		}
		if _, dup := db.tables[op.name]; dup {
			return fmt.Errorf("duplicate table %s", op.name)
		}
		db.tables[op.name] = newTable(op.def)
		return nil
	case opSeq:
		db.seqs[op.name] = op.seqV
		return nil
	}
	t, ok := db.tables[op.name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, op.name)
	}
	switch op.kind {
	case opPut:
		if err := t.def.checkRow(op.row); err != nil {
			return err
		}
		t.put(op.row)
	case opDelete:
		t.deleteByPK(op.pk)
	case opDrop:
		delete(db.tables, op.name)
	default:
		return fmt.Errorf("unknown op %d", op.kind)
	}
	return nil
}

// put inserts or replaces a row (no constraint checks; callers check).
func (t *table) put(r Row) { t.rows[t.def.pkEnc(r)] = r }

func (t *table) deleteByPK(pk string) (Row, bool) {
	old, ok := t.rows[pk]
	delete(t.rows, pk)
	return old, ok
}

// ascend visits the rows in ascending encoded-key order — the byte order
// of pkEnc, which is deterministic but not the order of the key's values
// (see value.go) — until fn returns false. Checkpoint writes in this order
// so that equal tables give equal snapshot.db bytes; Scan has no order.
func (t *table) ascend(fn func(r Row) bool) {
	keys := make([]string, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if !fn(t.rows[k]) {
			return
		}
	}
}

// groupCommitter batches concurrent WAL appends: the first committer to
// arrive while no flush is running becomes the leader and writes every
// record queued by the time it runs in one wal.AppendBatch (one Write, at
// most one fsync), handing each waiter its result — batching under
// contention, no added latency when idle. Committers hold their table locks while waiting, so conflicting
// transactions can never share a group — record order within a flush only
// ever permutes independent transactions, which replay to the same state.
type groupCommitter struct {
	db *DB

	mu      sync.Mutex
	leading bool
	queue   []*commitWait
}

// flushResult is what a flush hands each waiter: appended distinguishes a
// failed append (nothing durable — the waiter must roll back) from a
// failed fsync after a successful append (records durable — the waiter
// keeps its state and surfaces the error).
type flushResult struct {
	err      error
	appended bool
}

type commitWait struct {
	payload []byte
	done    chan flushResult
}

// commit submits one encoded WAL record and blocks until the flush that
// carried it completes. It reports whether the record was durably
// appended alongside any flush error.
func (gc *groupCommitter) commit(payload []byte) (bool, error) {
	cw := &commitWait{payload: payload, done: make(chan flushResult, 1)}
	gc.mu.Lock()
	gc.queue = append(gc.queue, cw)
	lead := !gc.leading
	if lead {
		gc.leading = true
	}
	gc.mu.Unlock()
	if lead {
		gc.lead()
	}
	res := <-cw.done
	return res.appended, res.err
}

// lead drains the queue in group flushes until it is empty, then abdicates.
func (gc *groupCommitter) lead() {
	for {
		gc.mu.Lock()
		batch := gc.queue
		gc.queue = nil
		if len(batch) == 0 {
			gc.leading = false
			gc.mu.Unlock()
			return
		}
		gc.mu.Unlock()

		payloads := make([][]byte, len(batch))
		for i, cw := range batch {
			payloads[i] = cw.payload
		}
		res := flushResult{err: gc.db.log.AppendBatch(payloads)}
		res.appended = res.err == nil
		if res.appended && gc.db.sync {
			res.err = gc.db.log.Sync()
		}
		if res.err == nil {
			gc.db.counters.ObserveGroupFlush(len(batch))
		}
		for _, cw := range batch {
			cw.done <- res
		}
	}
}

// Checkpoint writes a full snapshot to disk and truncates the WAL, first
// quiescing all transactions. It is a no-op for in-memory databases.
//
// The order is seal, install, drop: rotate the WAL to a fresh segment N,
// install a snapshot that records N, then remove the segments below N. A
// crash before the install recovers from the previous snapshot and the
// whole log; a crash after it recovers from the new snapshot, with Open
// finishing the drop before it replays — so no crash point leaves a
// snapshot under log records it already contains.
func (db *DB) Checkpoint() error {
	db.stateMu.Lock()
	defer db.stateMu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.log == nil {
		return nil
	}
	walFrom, err := db.log.Rotate()
	if err != nil {
		return err
	}
	if err := db.installSnapshot(db.appendSnapshot(nil, walFrom)); err != nil {
		return err
	}
	return db.log.RemoveBefore(walFrom)
}

// installSnapshot replaces the snapshot file atomically: write a temporary
// file, rename it into place. With SyncOnCommit the file is fsynced before
// the rename and the directory after it, so a power failure leaves either
// the old snapshot or the whole new one — never a name with no data while
// the log segments it replaces are being removed.
func (db *DB) installSnapshot(data []byte) error {
	tmp := filepath.Join(db.dir, snapshotFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("reldb: write snapshot: %w", err)
	}
	_, err = f.Write(data)
	if err == nil && db.sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("reldb: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(db.dir, snapshotFile)); err != nil {
		return fmt.Errorf("reldb: install snapshot: %w", err)
	}
	if !db.sync {
		return nil
	}
	return wal.SyncDir(db.dir)
}

// loadSnapshot restores state from the snapshot file if present and
// returns its WAL mark — the first WAL segment the snapshot does not
// contain (0, also without a snapshot: replay everything).
func (db *DB) loadSnapshot() (walFrom int, err error) {
	data, err := os.ReadFile(filepath.Join(db.dir, snapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("reldb: read snapshot: %w", err)
	}
	if writtenByGob(data) {
		return 0, errGobDir
	}
	if walFrom, err = decodeSnapshot(data, db.replay); err != nil {
		return 0, fmt.Errorf("reldb: recovery: snapshot: %w", err)
	}
	return walFrom, nil
}
