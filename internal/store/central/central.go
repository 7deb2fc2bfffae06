// Package central implements the centralized update store of §5.2.1 on top
// of the reldb relational engine (standing in for the commercial RDBMS the
// paper used). An epoch sequence timestamps each published batch; because
// publishing is not instantaneous, each peer records when it starts and
// finishes publishing, and a reconciling peer uses the latest epoch not
// preceded by an unfinished epoch as its reconciliation point. Trust
// predicates and update extensions are evaluated inside the store, so only
// relevant transactions travel to the client.
//
// # Concurrency
//
// The store's locks are fine-grained so concurrent publishers and
// reconcilers do not contend on a single lock (see docs/ARCHITECTURE.md and docs/STORAGE.md):
//
//   - Epoch allocation takes the only global write lock (epochMu) for a
//     short, normally memory-only critical section: epoch numbers are
//     handed out from a pre-allocated block, and the durable sequence
//     commit that claims the next block runs once every epochBlock
//     publishes.
//   - The stable-epoch frontier is maintained incrementally: every epoch
//     finish advances it through consecutively finished epochs, so
//     reconcilers read it from a single atomic — O(1) instead of a scan
//     over all epochs.
//   - Each open epoch carries its own mutex; since an epoch is owned by
//     exactly one publisher, payload encoding and cache warming — the
//     expensive parts of publishing — run without excluding other peers.
//   - Each epoch lists its own entries, so a begin walks its window
//     epoch by epoch without touching the index. The transaction index is
//     one map under one read-write lock: a publisher holds it exclusively
//     only to add an entry, and reconcilers chasing antecedents take it
//     shared.
//   - Per-peer state (trust, recno, decided sets) sits behind a per-peer
//     mutex: one peer's reconciliation never blocks another's.
//
// # Tables
//
// The publish log is two tables: txns holds one row per published batch,
// keyed by the global order of its first transaction, and decisions one
// row per commit and peer, keyed by (peer, first_dseq) (decisions.go). A
// publish commits its txns row and its self-accept decisions row
// together, so an epoch is durable exactly when its txns row is, and
// recovery registers it as finished from that row; the epoch sequence's
// high-water mark voids the rest.
//
// # Snapshots and compaction
//
// The store can serialize a global engine-state snapshot at a
// stable-epoch boundary (Snapshot, or periodically via WithSnapshotEvery)
// into the snapshots table: per registered peer, the engine state its
// decisions produce, plus the residue — transactions not yet accepted by
// every peer, whose payloads may still be needed by future extensions or
// late decisions. store.RebuildPeer then restores a peer from the
// snapshot and replays only the post-snapshot tail (ReplayFrom) instead
// of the whole history, and CompactBefore drops the publish/decision rows
// of epochs a retained snapshot has absorbed — refusing to outrun any
// peer's reconciliation frontier or the snapshot's coverage. Those three
// rules are all of them: watch subscriptions (watch.go) are wake signals
// carrying two epoch numbers, the store keeps no registry of them, and an
// attached subscriber never holds history. The recovery contract lives in
// docs/RECOVERY.md; the differential matrix pins compaction to change
// storage only, never decisions.
//
// Lock order: an epoch mutex may be taken before a peer mutex (publish),
// and a peer mutex before a *finished* epoch's mutex (reconciliation
// snapshot); the two can never deadlock because an epoch is unfinished
// while publishing and only finished epochs are snapshotted. snapMu
// (serializing Snapshot/CompactBefore) is outermost and never needed by
// the publish/reconcile paths; Snapshot takes every peer mutex in sorted
// ID order — the same order RecordDecisionsBatch uses — for its brief
// copy phase. epochMu is taken after epoch/peer locks only for the brief
// frontier advance, whose critical section takes no other store lock. The
// reldb engine's per-table locks are always innermost; every multi-table
// commit touches tables in the order "epoch" sequence → txns → decisions →
// peers → meta → snapshots → idempotency (the lock-order rule documented
// in docs/STORAGE.md); the idempotency table is always last, so dedup
// records can ride any keyed operation's commit.
package central

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"orchestra/internal/core"
	"orchestra/internal/metrics"
	"orchestra/internal/reldb"
	"orchestra/internal/spread"
	"orchestra/internal/store"
	"orchestra/internal/trust"
)

// OrderStride spaces the global order values of consecutive epochs; both
// store implementations assign Order = epoch*OrderStride + position so
// their orderings agree exactly.
const OrderStride = 1 << 20

// epochBlock is how many epoch numbers each durable sequence commit claims:
// the allocator's commit is amortized across that many publishes. Epoch
// numbers are handed out densely regardless; after a crash the unissued
// remainder of the current block becomes a permanent gap that recovery
// marks void (finished and empty).
const epochBlock = 8

// layoutVersion identifies the on-disk table layout; it is recorded in the
// meta table when a directory is created. Version 2 was the epoch-sharded
// layout; version 3 added the snapshots table and the compacted_before
// meta key; version 4 kept a peer's decisions as one decisions_k row per
// commit and shard (decisions.go) instead of one row per decision; version
// 5 has one txns and one decisions table and no epochs table. Open
// refuses layout 4 with errLayout4, which names the releases that upgrade
// it, and layout 3 with errLayout3; earlier layouts (including pre-shard
// directories with no meta table and a plain "txns" table) cannot be
// migrated.
const layoutVersion = 5

// Option configures Open.
type Option func(*config)

type config struct {
	snapEvery   int64
	compactKeep int64
}

func defaultConfig() config {
	return config{compactKeep: -1}
}

// WithSnapshotEvery enables automatic snapshots: after a publish moves the
// stable epoch n or more epochs past the retained snapshot, the publishing
// call takes a fresh one (Store.Snapshot). n <= 0 (the default) disables
// the automatism; Snapshot stays available on demand either way. Automatic
// maintenance is best-effort: its failures never fail the publish that
// triggered it.
func WithSnapshotEvery(n int) Option {
	return func(c *config) { c.snapEvery = int64(n) }
}

// WithCompactKeep enables automatic compaction after each automatic
// snapshot: the publish log is compacted to keep epochs below the allowed
// horizon — the minimum of the snapshot epoch and every peer's
// reconciliation frontier. keep = 0 compacts as far as the safety
// invariants allow; negative (the default) never compacts automatically.
// Because compaction only runs after an automatic snapshot, opening a store
// with keep >= 0 and no WithSnapshotEvery cadence is an error.
// CompactBefore stays available on demand either way.
func WithCompactKeep(keep int) Option {
	return func(c *config) { c.compactKeep = int64(keep) }
}

// Store is the centralized update store, a store.Backend.
type Store struct {
	db       *reldb.DB
	schema   *core.Schema
	counters *metrics.StoreCounters

	// ns is the group-namespace prefix every table and sequence name
	// carries ("" for a single-tenant store opened with Open). Tenant
	// stores opened through a Node share one reldb database; because each
	// tenant touches only its own prefixed tables, reldb's per-table locks
	// keep tenants fully parallel while their commits share WAL group
	// flushes. ownsDB records whether Close may close the database (a
	// tenant's database belongs to its Node).
	ns     string
	ownsDB bool

	// Namespaced fixed table and sequence names, precomputed at open.
	metaTab      string
	txnsTab      string
	decisionsTab string
	peersTab     string
	snapsTab     string
	idemTab      string
	trustTab     string
	epochSeq     string

	// epochMu guards the epoch registry (epochs, maxE) and the allocator
	// block (blockNext, blockEnd). Exclusive only for the short allocation
	// and frontier-advance critical sections; shared for lookups.
	epochMu sync.RWMutex
	epochs  spread.Map[core.Epoch, *epochMeta]
	maxE    core.Epoch

	// [blockNext, blockEnd] is the unissued remainder of the epochBlock
	// epoch numbers the last durable sequence commit claimed.
	blockNext core.Epoch
	blockEnd  core.Epoch

	// stableE is the incrementally maintained stable-epoch frontier: the
	// latest epoch not preceded by an unfinished allocated epoch. Advanced
	// under epochMu on every epoch finish, read lock-free.
	stableE atomic.Int64

	// txnsMu guards txns, the TxnID → entry index. Publishers hold it
	// exclusively only to add an entry; begins walk each epoch's own
	// entries instead, and the antecedent chase takes it shared.
	txnsMu sync.RWMutex
	txns   spread.Map[core.TxnID, *entry]

	// peersMu guards the peer registry map only; per-peer state is behind
	// each peerMeta's own mutex.
	peersMu sync.RWMutex
	peers   map[core.PeerID]*peerMeta

	// trustGraph resolves registered textual policies' delegations into
	// each peer's effective, planned trust. Registration (and recovery)
	// feed it; peerMeta.trust always holds the resolved form. Mutations
	// happen under peersMu, so the affected peers' metas can be updated
	// atomically with the graph.
	trustGraph *trust.Graph

	// snapMu serializes Snapshot and CompactBefore against each other; it
	// is the outermost store lock (never taken while holding any other) and
	// is never needed by the publish/reconcile paths.
	snapMu sync.Mutex
	// snapState caches what the snapshots table and the compacted_before
	// meta key record: the retained snapshot itself, decoded once and
	// shared read-only (LatestSnapshot), its epoch, its per-peer
	// decision-sequence high-water marks (a peer is covered by the snapshot
	// iff it has one), and the compaction horizon. Only a snapshot commit
	// writes the snapshots table, and it replaces snap under mu before it
	// returns.
	snapState struct {
		mu        sync.RWMutex
		snap      *store.Snapshot
		epoch     core.Epoch
		hw        map[core.PeerID]int64
		residue   map[core.TxnID]bool
		compacted core.Epoch
	}
	// snapEvery/compactKeep hold the automatic-maintenance policy
	// (WithSnapshotEvery, WithCompactKeep; compactKeep < 0 = off).
	snapEvery   int64
	compactKeep int64

	// idemMu guards the idempotency-key map (see idempotency.go): in-flight
	// and completed keyed operations. Held only for map access, never
	// across an operation.
	idemMu sync.Mutex
	idem   map[store.IdempotencyKey]*idemEntry

	// watchMu guards the frontier-advance broadcast channel (see watch.go).
	// It is a leaf lock: taken briefly for channel access, never while
	// acquiring any other store lock.
	watchMu     sync.Mutex
	watchSignal chan struct{}
	// watchDone is closed by Close so subscription goroutines whose
	// consumers never cancel still terminate with the store.
	watchDone   chan struct{}
	watchClosed bool

	// life fences the store's lifetime: every verb holds it shared for its
	// whole run (enter, exit), Close takes it exclusively and sets closed,
	// so no verb runs on, or commits after, a closed store.
	life   sync.RWMutex
	closed bool
}

// ErrClosed is what every verb of a closed store returns. It is permanent:
// a retry gets it again.
var ErrClosed = errors.New("central: store is closed")

// enter admits a verb, or refuses it once the store is closed. An
// admitted verb calls exit when it is done; verbs never enter from inside
// one another, since a shared hold cannot be taken twice while Close
// waits.
func (s *Store) enter() error {
	s.life.RLock()
	if s.closed {
		s.life.RUnlock()
		return ErrClosed
	}
	return nil
}

func (s *Store) exit() { s.life.RUnlock() }

var _ store.Backend = (*Store)(nil)

type entry struct {
	pub   store.PublishedTxn
	epoch core.Epoch
}

type epochMeta struct {
	// finished flips exactly once, after every transaction of the epoch is
	// durably recorded and indexed; the stable-epoch scan reads it
	// lock-free.
	finished atomic.Bool
	// mu guards txns and serializes writes into this epoch. An epoch is
	// owned by one publisher, so this is the per-peer publish shard.
	mu sync.Mutex
	// txns are the epoch's indexed entries in publish order, the same
	// pointers the index holds. A compacted epoch's meta is
	// replaced by an empty one, so the list never names an entry the
	// index has dropped.
	txns []*entry
}

// entries returns the epoch's entries. Once finished flips the list is
// immutable and the atomic load orders this read after the final append,
// so readers of finished epochs (every reconciliation window) take no lock
// and make no copy.
func (em *epochMeta) entries() []*entry {
	if em.finished.Load() {
		return em.txns
	}
	em.mu.Lock()
	ens := slices.Clone(em.txns)
	em.mu.Unlock()
	return ens
}

type peerMeta struct {
	// mu serializes this peer's publishes, reconciliations, and decision
	// recording against each other — and nothing else.
	mu        sync.Mutex
	trust     core.Trust
	lastEpoch core.Epoch
	recno     int
	// decided holds each decision with its sequence number: the peer's
	// valid replay order for reconstruction (ReplayFrom). A decided
	// table, a word per decision, not a map: it only grows until
	// compaction, and every candidate filter and extension reads it.
	decided core.DecisionTable
	nextSeq int64
}

// recordDecisionLocked updates the decision cache.
func (pm *peerMeta) recordDecisionLocked(id core.TxnID, d core.Decision) int64 {
	pm.nextSeq++
	pm.decided.Set(id, core.RestoredDecision{Decision: d, Seq: pm.nextSeq})
	return pm.nextSeq
}

// Open creates (or recovers) a store. dir == "" keeps everything in
// memory.
func Open(schema *core.Schema, dir string, opts ...Option) (*Store, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	db, err := reldb.Open(reldb.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	s, err := openOn(db, schema, "", true, cfg)
	if err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

// openOn builds a store over an existing database under the given
// namespace prefix. ownsDB decides whether Close closes the database: the
// single-tenant Open owns its database, a Node's tenants do not.
func openOn(db *reldb.DB, schema *core.Schema, ns string, ownsDB bool, cfg config) (*Store, error) {
	if cfg.compactKeep >= 0 && cfg.snapEvery <= 0 {
		return nil, fmt.Errorf("central: WithCompactKeep(%d) needs WithSnapshotEvery(n > 0): compaction only runs after an automatic snapshot", cfg.compactKeep)
	}
	s := &Store{
		db:           db,
		schema:       schema,
		counters:     &metrics.StoreCounters{},
		ns:           ns,
		ownsDB:       ownsDB,
		metaTab:      ns + "meta",
		txnsTab:      ns + "txns",
		decisionsTab: ns + "decisions",
		peersTab:     ns + "peers",
		snapsTab:     ns + "snapshots",
		idemTab:      ns + "idempotency",
		trustTab:     ns + "trust",
		epochSeq:     ns + "epoch",
		txns:         spread.Make[core.TxnID, *entry](),
		epochs:       spread.Make[core.Epoch, *epochMeta](),
		peers:        make(map[core.PeerID]*peerMeta),
		trustGraph:   trust.NewGraph(schema),
		snapEvery:    cfg.snapEvery,
		compactKeep:  cfg.compactKeep,
		idem:         make(map[store.IdempotencyKey]*idemEntry),
		watchSignal:  make(chan struct{}),
		watchDone:    make(chan struct{}),
	}
	if err := s.initTables(); err != nil {
		return nil, err
	}
	if err := s.loadCaches(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustOpenMemory opens an in-memory store or panics.
func MustOpenMemory(schema *core.Schema) *Store {
	s, err := Open(schema, "")
	if err != nil {
		panic(err)
	}
	return s
}

// Close terminates open watch subscriptions, waits for the verbs in flight,
// and from then on refuses every verb with ErrClosed. A store that owns its
// database (opened with Open) closes it; a tenant store opened through a
// Node leaves the shared database to the Node, and a later OpenGroup of
// the same group gets a new store that this one can no longer write
// behind. Closing a closed store does nothing.
func (s *Store) Close() error {
	s.watchMu.Lock()
	if !s.watchClosed {
		s.watchClosed = true
		close(s.watchDone)
	}
	s.watchMu.Unlock()
	s.life.Lock()
	already := s.closed
	s.closed = true
	s.life.Unlock()
	if already || !s.ownsDB {
		return nil
	}
	return s.db.Close()
}

// Metrics exposes the store's concurrency counters: publish volume, lock
// contention (including publish-commit overlap), and decision-batch shape.
func (s *Store) Metrics() *metrics.StoreCounters { return s.counters }

// DBMetrics exposes the backing storage engine's commit and contention
// counters (group-commit flush economy, table-lock waits).
func (s *Store) DBMetrics() *metrics.DBCounters { return s.db.Metrics() }

// lookup returns the indexed entry for id, or nil.
func (s *Store) lookup(id core.TxnID) *entry {
	s.txnsMu.RLock()
	en, _ := s.txns.Get(id)
	s.txnsMu.RUnlock()
	return en
}

// index adds an entry to the index.
func (s *Store) index(en *entry) {
	s.txnsMu.Lock()
	s.txns.Set(en.pub.Txn.ID, en)
	s.txnsMu.Unlock()
}

// peer resolves a registered peer.
func (s *Store) peer(peer core.PeerID) (*peerMeta, error) {
	s.peersMu.RLock()
	pm := s.peers[peer]
	s.peersMu.RUnlock()
	if pm == nil {
		return nil, fmt.Errorf("%w: %s", store.ErrUnknownPeer, peer)
	}
	return pm, nil
}

// epoch resolves a registered epoch.
func (s *Store) epoch(e core.Epoch) *epochMeta {
	s.epochMu.RLock()
	em, _ := s.epochs.Get(e)
	s.epochMu.RUnlock()
	return em
}

// maxEpoch returns the highest allocated epoch.
func (s *Store) maxEpoch() core.Epoch {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	return s.maxE
}

// lockContended acquires mu, bumping the contention counter when the
// fast-path TryLock fails — the signal surfaced by Metrics().
func lockContended(mu *sync.Mutex, onWait func()) {
	if mu.TryLock() {
		return
	}
	onWait()
	mu.Lock()
}

// Checkpoint snapshots the backing database and truncates its WAL.
func (s *Store) Checkpoint() error {
	if err := s.enter(); err != nil {
		return err
	}
	defer s.exit()
	return s.db.Checkpoint()
}

// TxnCount returns the number of published transactions (for tests and the
// bench harness).
func (s *Store) TxnCount() int {
	s.txnsMu.RLock()
	defer s.txnsMu.RUnlock()
	return s.txns.Len()
}
