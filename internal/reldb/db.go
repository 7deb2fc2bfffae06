// Package reldb is a small relational storage engine: typed tables keyed
// by primary key (a map per table; lookups by full key, scans in
// encoded-key order), atomic read-write transactions with rollback, named
// sequences, and durability through a write-ahead log plus snapshot
// checkpoints (package wal).
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
// Commit appends the transaction's operations to the WAL as one record;
// recovery replays records in append order and truncates any torn tail.
// Concurrent committers hand their records to a shared flusher: the first
// committer to arrive becomes the leader and writes every record queued by
// then with one WAL write and at most one fsync — commits per flush is the
// win, visible through Metrics(). Group commit changes durability batching
// only, never atomicity, isolation, or recovery semantics.
package reldb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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
	if err := l.Replay(func(payload []byte) error {
		var batch []walOp
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&batch); err != nil {
			return fmt.Errorf("reldb: decode wal record: %w", err)
		}
		return db.applyOps(batch)
	}); err != nil {
		l.Close()
		return nil, err
	}
	db.gc = &groupCommitter{db: db}
	return db, nil
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

// walOp is one logged mutation.
type walOp struct {
	Kind  opKind
	Table string
	PK    string
	Row   Row
	Def   TableDef
	Seq   string
	SeqV  int64
}

type opKind uint8

const (
	opPut opKind = iota + 1
	opDelete
	opCreate
	opSeq
	opDrop
)

// applyOps replays logged operations without re-logging; used by recovery.
// Open is single-threaded, so no locks are taken here.
func (db *DB) applyOps(batch []walOp) error {
	for _, op := range batch {
		switch op.Kind {
		case opCreate:
			if _, dup := db.tables[op.Def.Name]; dup {
				return fmt.Errorf("reldb: recovery: duplicate table %s", op.Def.Name)
			}
			db.tables[op.Def.Name] = newTable(op.Def)
		case opPut:
			t, ok := db.tables[op.Table]
			if !ok {
				return fmt.Errorf("reldb: recovery: %w: %s", ErrNoTable, op.Table)
			}
			t.put(op.Row)
		case opDelete:
			t, ok := db.tables[op.Table]
			if !ok {
				return fmt.Errorf("reldb: recovery: %w: %s", ErrNoTable, op.Table)
			}
			t.deleteByPK(op.PK)
		case opSeq:
			db.seqs[op.Seq] = op.SeqV
		case opDrop:
			if _, ok := db.tables[op.Table]; !ok {
				return fmt.Errorf("reldb: recovery: %w: %s", ErrNoTable, op.Table)
			}
			delete(db.tables, op.Table)
		default:
			return fmt.Errorf("reldb: recovery: unknown op %d", op.Kind)
		}
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
// (see value.go) — until fn returns false.
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

// snapshot is the gob-serialized full-state checkpoint.
type snapshot struct {
	Defs []TableDef
	Rows map[string][]Row
	Seqs map[string]int64
	// WALFrom is the first WAL segment not contained in the snapshot:
	// recovery drops the segments below it and replays the rest. Zero —
	// also what a snapshot written before the field existed decodes to —
	// means replay every segment.
	WALFrom int
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
	snap := snapshot{Rows: make(map[string][]Row), Seqs: make(map[string]int64), WALFrom: walFrom}
	for name, t := range db.tables {
		snap.Defs = append(snap.Defs, t.def)
		var rows []Row
		t.ascend(func(r Row) bool {
			rows = append(rows, r)
			return true
		})
		snap.Rows[name] = rows
	}
	for k, v := range db.seqs {
		snap.Seqs[k] = v
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return fmt.Errorf("reldb: encode snapshot: %w", err)
	}
	if err := db.installSnapshot(buf.Bytes()); err != nil {
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
// returns its WAL mark (0 without a snapshot: replay everything).
func (db *DB) loadSnapshot() (walFrom int, err error) {
	data, err := os.ReadFile(filepath.Join(db.dir, snapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("reldb: read snapshot: %w", err)
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return 0, fmt.Errorf("reldb: decode snapshot: %w", err)
	}
	for _, def := range snap.Defs {
		t := newTable(def)
		for _, r := range snap.Rows[def.Name] {
			t.put(r)
		}
		db.tables[def.Name] = t
	}
	for k, v := range snap.Seqs {
		db.seqs[k] = v
	}
	return snap.WALFrom, nil
}

// GobEncode implements gob encoding for V (fields are unexported).
func (v V) GobEncode() ([]byte, error) { return v.appendEncoded(nil), nil }

// GobDecode implements gob decoding for V.
func (v *V) GobDecode(data []byte) error {
	dec, rest, err := decodeV(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("reldb: trailing bytes in V encoding")
	}
	*v = dec
	return nil
}

// decodeV decodes one value from the canonical encoding.
func decodeV(src []byte) (V, []byte, error) {
	if len(src) == 0 {
		return V{}, nil, fmt.Errorf("reldb: decode value: empty input")
	}
	t := ColType(src[0])
	src = src[1:]
	switch t {
	case 0:
		return V{}, src, nil
	case ColString, ColBytes:
		n, sz := binary.Uvarint(src)
		if sz <= 0 || uint64(len(src)-sz) < n {
			return V{}, nil, fmt.Errorf("reldb: decode value: bad string")
		}
		return V{t: t, s: string(src[sz : sz+int(n)])}, src[sz+int(n):], nil
	case ColInt, ColFloat, ColBool:
		n, sz := binary.Uvarint(src)
		if sz <= 0 {
			return V{}, nil, fmt.Errorf("reldb: decode value: bad number")
		}
		return V{t: t, n: n}, src[sz:], nil
	default:
		return V{}, nil, fmt.Errorf("reldb: decode value: unknown type %d", t)
	}
}
