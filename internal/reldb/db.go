// Package reldb is a small relational storage engine: typed tables keyed
// by primary key (a spread.Map per table; lookups by full key, unordered
// scans), atomic read-write transactions with rollback, named sequences, and
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
// applies, and truncates any torn tail. The log names a table by an id
// that CreateTable assigns and never reuses; only a create and the
// snapshot spell its name. A directory written in an older format — gob,
// or version 1 of this one — is refused, untouched, with an error naming
// the releases that upgrade it (errGobDir, errVersion1Dir).
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
	"strings"
	"sync"

	"orchestra/internal/metrics"
	"orchestra/internal/spread"
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

	// tablesMu guards the table maps and nextID; each table's data is
	// guarded by the table's own lock.
	tablesMu sync.RWMutex
	tables   map[string]*table
	// byID indexes the same tables by id, the name the log gives them.
	byID map[uint64]*table
	// nextID is the id the next CreateTable assigns: never one a table of
	// this process had, and past every id the snapshot or log names.
	nextID uint64

	// seqMu guards seqs like a table lock: writers that touch sequences
	// hold it exclusively to commit, read-only transactions hold it
	// shared to the end of the View.
	seqMu sync.RWMutex
	seqs  map[string]int64

	counters metrics.DBCounters

	// txs holds finished transactions for reuse, record buffer, undo list
	// and commit waiter included (see Tx.release).
	txs sync.Pool
}

type table struct {
	// mu is the table lock: Update transactions hold it exclusively from
	// first touch to commit, View transactions hold it shared.
	mu  sync.RWMutex
	def TableDef
	id  uint64
	// rows holds each row under TableDef.keyOf of it, stored as its
	// encoding: the bytes its WAL record and snapshot.db carry, shared
	// with them.
	rows spread.Map[string, string]
	// pending is non-nil while the transaction that created this table is
	// still uncommitted; other transactions treat the table as absent.
	pending *Tx
}

func newTable(def TableDef, id uint64) *table {
	return &table{def: def, id: id, rows: spread.Make[string, string]()}
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
		byID:   make(map[uint64]*table),
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
		// The first live record tells, as the snapshot's first bytes do,
		// whether an older format wrote this directory; past it an old
		// record is corruption like any other.
		if first {
			if err := olderFormat(payload); err != nil {
				return err
			}
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
// this format's version 1 on their first Open; the releases from commit
// eba415a through 9523137 then rewrite that in the current version.
var errGobDir = errors.New("reldb: directory written in the gob format, which this release no longer reads; open it once with a release from commit 85f5c48 through a794feb (the last), which upgrades it to version 1, then once with a release from commit eba415a through 9523137, which upgrades it to version 2")

// errVersion1Dir refuses a directory in version 1 of the record format,
// which named the table in every op. Open tells one, as it tells a gob
// directory, by the header of snapshot.db or of the first live WAL record,
// and returns this before it replays anything. The releases from commit
// eba415a through 9523137 read version 1 and rewrite the directory in
// version 2 on their first Open.
var errVersion1Dir = errors.New("reldb: directory written in record format version 1, which this release no longer reads; open it once with a release from commit eba415a through 9523137 (the last), which upgrades it to version 2")

// olderFormat refuses b, a snapshot file or a WAL record, if a format
// before the current one wrote it: gob, which never opens with recMagic,
// or version 1. Anything else is left to the decoder.
func olderFormat(b []byte) error {
	switch {
	case len(b) > 0 && b[0] != recMagic:
		return errGobDir
	case len(b) > 1 && b[1] == 1:
		return errVersion1Dir
	}
	return nil
}

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
// read-locked from first touch until fn returns. The Tx is reused once fn
// returns: fn must not keep it.
func (db *DB) View(fn func(tx *Tx) error) error {
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	tx := db.begin(false)
	err := fn(tx)
	tx.release()
	db.txs.Put(tx)
	return err
}

// Update runs fn with exclusive access to every table it touches; all
// writes are applied atomically (rolled back if fn errors) and logged to
// the WAL at commit. Concurrent Updates on disjoint tables proceed in
// parallel; see the package comment for the lock-order contract. The Tx
// is reused once fn returns: fn must not keep it.
func (db *DB) Update(fn func(tx *Tx) error) error {
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	tx := db.begin(true)
	err := fn(tx)
	if err != nil {
		tx.rollback()
	} else {
		err = tx.commit()
	}
	tx.release()
	db.txs.Put(tx)
	return err
}

// begin takes a transaction from the pool, or makes one.
func (db *DB) begin(writable bool) *Tx {
	tx, _ := db.txs.Get().(*Tx)
	if tx == nil {
		tx = &Tx{db: db, wait: commitWait{done: make(chan flushResult, 1)}}
	}
	tx.writable = writable
	return tx
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
// CreateTable and Insert check them, and a create may reuse neither a live
// name nor a live id. Open is single-threaded, so no locks are taken here.
func (db *DB) replay(op *walOp) error {
	switch op.kind {
	case opCreate:
		if err := op.def.validate(); err != nil {
			return err
		}
		if _, dup := db.tables[op.name]; dup {
			return fmt.Errorf("duplicate table %s", op.name)
		}
		if _, dup := db.byID[op.id]; dup {
			return fmt.Errorf("duplicate table id %d", op.id)
		}
		db.nextID = max(db.nextID, op.id+1)
		db.addTable(newTable(op.def, op.id))
		return nil
	case opSeq:
		db.seqs[op.name] = op.seqV
		return nil
	}
	t, ok := db.byID[op.id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNoTable, op.id)
	}
	switch op.kind {
	case opPut:
		if err := t.def.checkEncoded(op.row); err != nil {
			return err
		}
		t.put(op.row)
	case opDelete:
		t.rows.Delete(op.pk)
	case opDrop:
		db.removeTable(t)
	default:
		return fmt.Errorf("unknown op %d", op.kind)
	}
	return nil
}

// addTable and removeTable keep the two table maps in step; the caller
// holds tablesMu, or is replay.
func (db *DB) addTable(t *table) {
	db.tables[t.def.Name] = t
	db.byID[t.id] = t
}

func (db *DB) removeTable(t *table) {
	delete(db.tables, t.def.Name)
	delete(db.byID, t.id)
}

// put inserts or replaces a stored row (no constraint checks; callers
// check).
func (t *table) put(row string) { t.rows.Set(t.def.keyOf(row), row) }

// ascend visits the stored rows in ascending encoded-key order — the byte
// order of keyOf, which is deterministic but not the order of the key's
// values (see value.go) — until fn returns false. Checkpoint writes in
// this order so that equal tables give equal snapshot.db bytes; Scan has
// no order.
func (t *table) ascend(fn func(row string) bool) {
	type kv struct{ pk, row string }
	rows := make([]kv, 0, t.rows.Len())
	for pk, row := range t.rows.All() {
		rows = append(rows, kv{pk, row})
	}
	slices.SortFunc(rows, func(a, b kv) int { return strings.Compare(a.pk, b.pk) })
	for _, r := range rows {
		if !fn(r.row) {
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

	// payloads is the leader's scratch: only the one leader touches it.
	payloads [][]byte
}

// flushResult is what a flush hands each waiter: appended distinguishes a
// failed append (nothing durable — the waiter must roll back) from a
// failed fsync after a successful append (records durable — the waiter
// keeps its state and surfaces the error).
type flushResult struct {
	err      error
	appended bool
}

// commitWait is a committer's place in the queue. Each Tx owns one, its
// channel made once and reused by every commit of the Tx.
type commitWait struct {
	payload []byte
	done    chan flushResult
}

// commit submits cw's encoded WAL record and blocks until the flush that
// carried it completes. It reports whether the record was durably
// appended alongside any flush error.
func (gc *groupCommitter) commit(cw *commitWait) (bool, error) {
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
// The queue and the batch being flushed trade their slices, so a flush
// allocates nothing.
func (gc *groupCommitter) lead() {
	var spare []*commitWait
	for {
		gc.mu.Lock()
		batch := gc.queue
		if len(batch) == 0 {
			if cap(batch) == 0 {
				gc.queue = spare
			}
			gc.leading = false
			gc.mu.Unlock()
			return
		}
		gc.queue = spare
		gc.mu.Unlock()

		payloads := gc.payloads[:0]
		for _, cw := range batch {
			payloads = append(payloads, cw.payload)
		}
		res := flushResult{err: gc.db.log.AppendBatch(payloads)}
		clear(payloads)
		gc.payloads = payloads
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
		clear(batch)
		spare = batch[:0]
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
	if err := olderFormat(data); err != nil {
		return 0, err
	}
	if walFrom, err = decodeSnapshot(data, db.replay); err != nil {
		return 0, fmt.Errorf("reldb: recovery: snapshot: %w", err)
	}
	return walFrom, nil
}
