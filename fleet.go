package orchestra

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"orchestra/internal/core"
	"orchestra/internal/dht"
	"orchestra/internal/reldb"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
)

// Multi-group scale-out: a Fleet routes many Groups (tenants) across a
// set of central store nodes by consistent hashing. Each node is one
// shared database (central.Node); co-located groups keep their rows in
// disjoint namespaced tables, so the storage engine's per-table locking
// runs them fully parallel while their commits batch through the shared
// WAL — group commit across tenants. Fleet membership changes rebalance
// explicitly: consistent hashing moves only the groups whose owner
// changed, and each move drains the group's in-flight store operations
// before copying its rows to the new node.

// GroupPeer declares one member of a group. Trust must be textual
// (*TrustPolicy): a group's peers are re-derived from durable state when
// the group migrates between nodes, and only textual policies persist.
type GroupPeer struct {
	ID    PeerID
	Trust *TrustPolicy
}

// GroupSpec declares one group: the unit of placement. A group is a full
// confederation — schema, peers, trust — whose store traffic the fleet
// routes to the node that currently owns it. SystemOptions configure the
// group's confederation (e.g. WithReconcileFanOut, a per-group stream
// observer); store-owning options are meaningless here — a group's peers
// always talk to the fleet-routed store.
type GroupSpec struct {
	ID            string
	Schema        *Schema
	Peers         []GroupPeer
	SystemOptions []SystemOption
}

// Group is one tenant of a fleet: a System whose peers all talk to the
// fleet-routed store. The System API (ReconcileAll, RunStreaming, Peers,
// Instances) works unchanged; migrations are invisible to it apart from
// the drain pause.
type Group struct {
	id     string
	schema *Schema
	sys    *System
	routed *routedStore
}

// ID returns the group's identifier.
func (g *Group) ID() string { return g.id }

// System returns the group's confederation handle.
func (g *Group) System() *System { return g.sys }

// MigrationEvent records one group move, for observability and the
// rebalance tests: ActiveAtMove is the routed store's in-flight operation
// gauge sampled after the migration acquired exclusive ownership — the
// drain proof, always 0.
type MigrationEvent struct {
	Group        string
	From, To     string
	ActiveAtMove int64
}

// FleetOption configures NewFleet.
type FleetOption func(*fleetConfig)

type fleetConfig struct {
	dirFor func(storeName string) string
}

// WithStoreDirs makes each node durable: dirFor maps a store name to its
// database directory ("" keeps that node in memory). In-memory nodes have
// no WAL, so the cross-tenant group-commit economy only shows on durable
// ones.
func WithStoreDirs(dirFor func(storeName string) string) FleetOption {
	return func(c *fleetConfig) { c.dirFor = dirFor }
}

// Fleet routes groups across central store nodes with consistent hashing.
// All methods are safe for concurrent use; group store traffic proceeds
// concurrently with everything except a migration of that same group.
type Fleet struct {
	cfg fleetConfig

	mu         sync.Mutex
	nodes      map[string]*central.Node
	placement  *dht.Placement
	groups     map[string]*Group
	owner      map[string]string // group → store name
	migrations []MigrationEvent
	closed     bool
}

// NewFleet builds an empty fleet; add stores before groups.
func NewFleet(opts ...FleetOption) *Fleet {
	var cfg fleetConfig
	for _, o := range opts {
		o(&cfg)
	}
	return &Fleet{
		cfg:       cfg,
		nodes:     make(map[string]*central.Node),
		placement: dht.NewPlacement(dht.DefaultVirtualNodes),
		groups:    make(map[string]*Group),
		owner:     make(map[string]string),
	}
}

// AddStore opens a node under the given name, joins it to the placement
// ring, and rebalances: consistent hashing guarantees only groups now
// owned by the new node move.
func (f *Fleet) AddStore(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("orchestra: fleet is closed")
	}
	dir := ""
	if f.cfg.dirFor != nil {
		dir = f.cfg.dirFor(name)
	}
	node, err := central.OpenNode(dir)
	if err != nil {
		return err
	}
	if err := f.placement.AddMember(name); err != nil {
		node.Close()
		return err
	}
	f.nodes[name] = node
	return f.rebalanceLocked()
}

// RemoveStore drains the node's groups to their new owners, removes it
// from the ring, and closes it. The last store cannot be removed while
// groups exist.
func (f *Fleet) RemoveStore(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	node, ok := f.nodes[name]
	if !ok {
		return fmt.Errorf("orchestra: fleet has no store %q", name)
	}
	if f.placement.Size() == 1 && len(f.groups) > 0 {
		return fmt.Errorf("orchestra: cannot remove last store %q while %d groups exist", name, len(f.groups))
	}
	if err := f.placement.RemoveMember(name); err != nil {
		return err
	}
	if err := f.rebalanceLocked(); err != nil {
		// Some groups may already have moved to owners computed from the
		// shrunken ring. Rejoin, then rebalance against the restored ring
		// so owner[] converges back to Place() instead of staying diverged
		// until the next membership change.
		f.placement.AddMember(name)
		if rerr := f.rebalanceLocked(); rerr != nil {
			err = errors.Join(err, rerr)
		}
		return err
	}
	delete(f.nodes, name)
	return node.Close()
}

// Stores returns the fleet's store names, sorted.
func (f *Fleet) Stores() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.placement.Members()
}

// AddGroup places the group on its ring owner, opens its tenant store
// there, and builds its confederation: every declared peer is registered
// with its trust policy.
func (f *Fleet) AddGroup(spec GroupSpec) (*Group, error) {
	if spec.ID == "" {
		return nil, fmt.Errorf("orchestra: group ID must be non-empty")
	}
	if spec.Schema == nil {
		return nil, fmt.Errorf("orchestra: group %q: schema is required", spec.ID)
	}
	for _, p := range spec.Peers {
		if p.Trust == nil {
			return nil, fmt.Errorf("orchestra: group %q peer %s: textual trust policy is required", spec.ID, p.ID)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("orchestra: fleet is closed")
	}
	if f.placement.Size() == 0 {
		return nil, fmt.Errorf("orchestra: group %q: fleet has no stores", spec.ID)
	}
	if _, dup := f.groups[spec.ID]; dup {
		return nil, fmt.Errorf("orchestra: group %q already exists", spec.ID)
	}
	owner := f.placement.Place(spec.ID)
	st, err := f.nodes[owner].OpenGroup(spec.ID, spec.Schema)
	if err != nil {
		return nil, err
	}
	routed := &routedStore{st: st}
	sysOpts := append([]SystemOption{
		WithPeerStores(func(core.PeerID) (store.Store, error) { return routed, nil }),
	}, spec.SystemOptions...)
	sys, err := NewSystem(spec.Schema, sysOpts...)
	if err != nil {
		f.nodes[owner].CloseGroup(spec.ID)
		return nil, err
	}
	g := &Group{id: spec.ID, schema: spec.Schema, sys: sys, routed: routed}
	for _, p := range spec.Peers {
		if _, err := sys.AddPeer(p.ID, p.Trust); err != nil {
			f.nodes[owner].CloseGroup(spec.ID)
			return nil, fmt.Errorf("orchestra: group %q peer %s: %w", spec.ID, p.ID, err)
		}
	}
	f.groups[spec.ID] = g
	f.owner[spec.ID] = owner
	return g, nil
}

// Group returns a group's handle.
func (f *Fleet) Group(id string) (*Group, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g, ok := f.groups[id]
	return g, ok
}

// Groups returns every group, sorted by ID.
func (f *Fleet) Groups() []*Group {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]string, 0, len(f.groups))
	for id := range f.groups {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Group, len(ids))
	for i, id := range ids {
		out[i] = f.groups[id]
	}
	return out
}

// StoreFor returns the name of the node currently hosting the group.
func (f *Fleet) StoreFor(group string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name, ok := f.owner[group]
	return name, ok
}

// Node exposes a store node (its shared database's commit/flush counters
// are the cross-tenant batching headline).
func (f *Fleet) Node(name string) (*central.Node, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[name]
	return n, ok
}

// Migrations returns every group move the fleet has performed, in order.
func (f *Fleet) Migrations() []MigrationEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]MigrationEvent(nil), f.migrations...)
}

// Close closes every node (and with them every tenant store). Group
// systems own no stores of their own.
func (f *Fleet) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	var first error
	for _, n := range f.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	f.nodes = map[string]*central.Node{}
	return first
}

// rebalanceLocked moves every group whose ring owner changed. Groups are
// processed in sorted order so the migration sequence is deterministic.
func (f *Fleet) rebalanceLocked() error {
	ids := make([]string, 0, len(f.groups))
	for id := range f.groups {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		want := f.placement.Place(id)
		if want == f.owner[id] {
			continue
		}
		if err := f.migrateLocked(f.groups[id], f.owner[id], want); err != nil {
			return fmt.Errorf("orchestra: migrate group %q: %w", id, err)
		}
	}
	return nil
}

// migrateLocked moves one group between nodes. It takes the routed
// store's write gate, which blocks new store operations and waits for
// every in-flight one to finish — reconciliations in progress complete
// their current store call; their cross-call state (reconciliation
// records, decisions) is durable and moves with the rows. It then closes
// the tenant (watch subscriptions close; streaming consumers resubscribe
// through the gate and block until the move finishes), copies the
// namespaced tables and the epoch sequence to the target node, drops the
// source tables, and reopens the tenant on the target — recovery rebuilds
// its caches from the copied rows exactly as after a restart.
func (f *Fleet) migrateLocked(g *Group, fromName, toName string) error {
	from, to := f.nodes[fromName], f.nodes[toName]
	g.routed.mu.Lock()
	defer g.routed.mu.Unlock()
	drained := g.routed.active.Load()

	if err := from.CloseGroup(g.id); err != nil {
		return err
	}
	// reopen restores the tenant on the source after a failed move. A
	// reopen failure is joined into the migration error: the routed store
	// would otherwise silently keep pointing at the closed tenant.
	reopen := func(cause error) error {
		st, err := from.OpenGroup(g.id, g.schema)
		if err != nil {
			return errors.Join(cause, fmt.Errorf("orchestra: reopen group %q on %s after failed migration: %w", g.id, fromName, err))
		}
		g.routed.st = st
		return cause
	}
	if err := copyGroupData(from.DB(), to.DB(), g.id); err != nil {
		return reopen(err)
	}
	st, err := to.OpenGroup(g.id, g.schema)
	if err != nil {
		return reopen(err)
	}
	if err := from.DetachGroup(g.id); err != nil {
		// The copy committed on the target; drop it again or the leftover
		// tables would shadow the (still live) source copy on a later move.
		to.CloseGroup(g.id)
		if derr := to.DetachGroup(g.id); derr != nil {
			err = errors.Join(err, derr)
		}
		return reopen(err)
	}
	g.routed.st = st
	f.owner[g.id] = toName
	f.migrations = append(f.migrations, MigrationEvent{
		Group: g.id, From: fromName, To: toName, ActiveAtMove: drained,
	})
	return nil
}

// copyGroupData copies one group's namespaced tables and epoch sequence
// between databases. The source read and the target write are each one
// storage transaction, so the copy is a consistent snapshot and lands
// atomically. Prefix selection is sound because the namespace grammar
// (store.GroupTablePrefix) is prefix-free across groups. Tables already
// present on the target under the group's namespace — leftovers of an
// earlier migration attempt that copied but failed to detach — are
// replaced, so a retried move converges instead of failing on a duplicate
// create.
func copyGroupData(src, dst *reldb.DB, group string) error {
	ns := store.GroupTablePrefix(group)
	var names []string
	for _, t := range src.TableNames() {
		if strings.HasPrefix(t, ns) {
			names = append(names, t)
		}
	}
	sort.Strings(names)
	type tableCopy struct {
		def  reldb.TableDef
		rows []reldb.Row
	}
	copies := make([]tableCopy, 0, len(names))
	var seq int64
	err := src.View(func(tx *reldb.Tx) error {
		for _, name := range names {
			def, ok := src.TableDef(name)
			if !ok {
				return fmt.Errorf("orchestra: table %s vanished during copy", name)
			}
			tc := tableCopy{def: def}
			if err := tx.Scan(name, func(r reldb.Row) bool {
				tc.rows = append(tc.rows, append(reldb.Row(nil), r...))
				return true
			}); err != nil {
				return err
			}
			copies = append(copies, tc)
		}
		seq = tx.CurrentSeq(ns + "epoch")
		return nil
	})
	if err != nil {
		return err
	}
	// Drop leftovers first, in their own transaction — reldb does not
	// support re-creating a dropped name within one transaction. A crash
	// between the two commits leaves the target clean, as if the copy had
	// never started.
	var leftovers []string
	for _, t := range dst.TableNames() {
		if strings.HasPrefix(t, ns) {
			leftovers = append(leftovers, t)
		}
	}
	if len(leftovers) > 0 {
		sort.Strings(leftovers)
		if err := dst.Update(func(tx *reldb.Tx) error {
			for _, t := range leftovers {
				if err := tx.DropTable(t); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return dst.Update(func(tx *reldb.Tx) error {
		for _, tc := range copies {
			if err := tx.CreateTable(tc.def); err != nil {
				return err
			}
			for _, r := range tc.rows {
				if err := tx.Insert(tc.def.Name, r); err != nil {
					return err
				}
			}
		}
		// The epoch sequence is monotone: advance the target's (possibly
		// stale, from an earlier visit) sequence forward to the source's
		// value, never backward.
		if delta := seq - tx.CurrentSeq(ns+"epoch"); delta > 0 {
			if _, err := tx.AdvanceSeq(ns+"epoch", delta); err != nil {
				return err
			}
		}
		return nil
	})
}

// routedStore is the indirection a group's peers talk through: every
// store call runs under a read lock on the migration gate and bumps the
// in-flight gauge, so a migration (write lock) both blocks new calls and
// waits out in-flight ones. Watch subscriptions hand out channels bound
// to the current tenant store; a migration closes them, and the streaming
// layer's resubscribe-on-close path re-enters through the gate and picks
// up the new location. The target is always what central.Node.OpenGroup
// returns, so the routed store is a store.Backend by plain forwarding.
type routedStore struct {
	mu     sync.RWMutex
	st     *central.Store
	active atomic.Int64
}

var _ store.Backend = (*routedStore)(nil)

func (rs *routedStore) enter() *central.Store {
	rs.mu.RLock()
	rs.active.Add(1)
	return rs.st
}

func (rs *routedStore) exit() {
	rs.active.Add(-1)
	rs.mu.RUnlock()
}

func (rs *routedStore) RegisterPeer(ctx context.Context, peer core.PeerID, t core.Trust) error {
	st := rs.enter()
	defer rs.exit()
	return st.RegisterPeer(ctx, peer, t)
}

func (rs *routedStore) Publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn) (core.Epoch, error) {
	st := rs.enter()
	defer rs.exit()
	return st.Publish(ctx, peer, txns)
}

func (rs *routedStore) BeginReconciliation(ctx context.Context, peer core.PeerID) (*store.Reconciliation, error) {
	st := rs.enter()
	defer rs.exit()
	return st.BeginReconciliation(ctx, peer)
}

func (rs *routedStore) RecordDecisions(ctx context.Context, peer core.PeerID, recno int, accepted, rejected []core.TxnID) error {
	st := rs.enter()
	defer rs.exit()
	return st.RecordDecisions(ctx, peer, recno, accepted, rejected)
}

func (rs *routedStore) RecordDecisionsBatch(ctx context.Context, batches []store.DecisionBatch) error {
	st := rs.enter()
	defer rs.exit()
	return st.RecordDecisionsBatch(ctx, batches)
}

func (rs *routedStore) CurrentRecno(ctx context.Context, peer core.PeerID) (int, error) {
	st := rs.enter()
	defer rs.exit()
	return st.CurrentRecno(ctx, peer)
}

// WatchFrom subscribes against the current tenant store. The channel is
// bound to that location: a migration closes it, and resubscribing (which
// the streaming layer does on close) routes to the new one.
func (rs *routedStore) WatchFrom(ctx context.Context, from core.Epoch) (<-chan store.WatchEvent, error) {
	st := rs.enter()
	defer rs.exit()
	return st.WatchFrom(ctx, from)
}

func (rs *routedStore) Snapshot(ctx context.Context) (core.Epoch, error) {
	st := rs.enter()
	defer rs.exit()
	return st.Snapshot(ctx)
}

func (rs *routedStore) CompactBefore(ctx context.Context, e core.Epoch) error {
	st := rs.enter()
	defer rs.exit()
	return st.CompactBefore(ctx, e)
}

func (rs *routedStore) LatestSnapshot(ctx context.Context) (*store.Snapshot, error) {
	st := rs.enter()
	defer rs.exit()
	return st.LatestSnapshot(ctx)
}

func (rs *routedStore) ReplayFrom(ctx context.Context, peer core.PeerID, from core.Epoch, afterSeq int64) ([]store.PublishedTxn, map[core.TxnID]core.RestoredDecision, error) {
	st := rs.enter()
	defer rs.exit()
	return st.ReplayFrom(ctx, peer, from, afterSeq)
}

func (rs *routedStore) ReplayFor(ctx context.Context, peer core.PeerID) ([]store.PublishedTxn, map[core.TxnID]core.RestoredDecision, error) {
	st := rs.enter()
	defer rs.exit()
	return st.ReplayFor(ctx, peer)
}

func (rs *routedStore) EffectiveTrust(ctx context.Context, peer core.PeerID) (core.Trust, error) {
	st := rs.enter()
	defer rs.exit()
	return st.EffectiveTrust(ctx, peer)
}
