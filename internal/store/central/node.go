package central

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"orchestra/internal/core"
	"orchestra/internal/metrics"
	"orchestra/internal/reldb"
	"orchestra/internal/store"
)

// Node hosts many groups' stores inside one shared database. Each group
// lives under its own table-name prefix ("g_<encoded id>_", see
// store.EncodeNamespace), so reldb's per-table locking keeps co-located
// groups fully parallel while their commits batch through the shared WAL's
// group-commit path — the multi-tenant win: one fsync can carry commits
// from many groups.
//
// A Node owns the database; the tenant stores it opens do not (a tenant store's
// Close ends its watch subscriptions and leaves the database alone). Lifecycle:
//
//	node, _ := OpenNode(dir)
//	g, _ := node.OpenGroup("proteomics", schema)   // open or create
//	... use g as an ordinary *Store ...
//	node.CloseGroup("proteomics")                  // quiesce
//	node.DetachGroup("proteomics")                 // drop its tables (migration)
//	node.Close()                                   // closes open groups + database
type Node struct {
	db  *reldb.DB
	cfg config

	mu     sync.Mutex
	groups map[string]*Store
	closed bool
}

// OpenNode creates (or recovers) a multi-group node. dir == "" keeps
// everything in memory (which also disables the WAL, and with it the
// shared group-commit economy — benchmarks measuring commits per flush
// need a disk-backed node). Options apply to every group the node opens.
func OpenNode(dir string, opts ...Option) (*Node, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	db, err := reldb.Open(reldb.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	return &Node{db: db, cfg: cfg, groups: make(map[string]*Store)}, nil
}

// groupNS returns the table-name prefix for a group's tenant store. The
// grammar (store.GroupTablePrefix) is prefix-free across groups, which is
// what lets DetachGroup and the migration copy select a group's tables by
// raw prefix without ever touching a sibling tenant's.
func groupNS(group string) string {
	return store.GroupTablePrefix(group)
}

// OpenGroup opens (or creates) the named group's store over the node's
// shared database. Per-group options override the node's defaults.
// A group may be open at most once — two live stores over the same tables
// would split the epoch allocator's cache — so reopening without an
// intervening CloseGroup is an error.
func (n *Node) OpenGroup(group string, schema *core.Schema, opts ...Option) (*Store, error) {
	cfg := n.cfg
	for _, o := range opts {
		o(&cfg)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("central: node is closed")
	}
	if _, open := n.groups[group]; open {
		return nil, fmt.Errorf("central: group %q is already open", group)
	}
	s, err := openOn(n.db, schema, groupNS(group), false, cfg)
	if err != nil {
		return nil, err
	}
	n.groups[group] = s
	return s, nil
}

// CloseGroup closes the named group's store (terminating its watch
// subscriptions); its tables stay in the database for a later OpenGroup.
func (n *Node) CloseGroup(group string) error {
	n.mu.Lock()
	s, open := n.groups[group]
	delete(n.groups, group)
	n.mu.Unlock()
	if !open {
		return fmt.Errorf("central: group %q is not open", group)
	}
	return s.Close()
}

// DetachGroup drops every table of a closed group — the destructive half
// of a migration, run after the group's rows have been copied to its new
// node. The group's epoch sequence is left behind; sequences are monotone
// and a returning migration advances it forward, so a stale value is
// harmless.
func (n *Node) DetachGroup(group string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, open := n.groups[group]; open {
		return fmt.Errorf("central: group %q is still open", group)
	}
	ns := groupNS(group)
	var tables []string
	for _, t := range n.db.TableNames() {
		if strings.HasPrefix(t, ns) {
			tables = append(tables, t)
		}
	}
	if len(tables) == 0 {
		return fmt.Errorf("central: group %q has no tables on this node", group)
	}
	sort.Strings(tables)
	return n.db.Update(func(tx *reldb.Tx) error {
		for _, t := range tables {
			if err := tx.DropTable(t); err != nil {
				return err
			}
		}
		return nil
	})
}

// StoredGroups lists the groups whose tables live in this node's
// database, open or not — recovered from the table names alone, which is
// what makes the namespace codec's reversibility load-bearing.
func (n *Node) StoredGroups() []string {
	var groups []string
	for _, t := range n.db.TableNames() {
		if id, ok := store.GroupFromMetaTable(t); ok {
			groups = append(groups, id)
		}
	}
	sort.Strings(groups)
	return groups
}

// DB exposes the shared database — the migration path copies a group's
// rows between nodes through it.
func (n *Node) DB() *reldb.DB { return n.db }

// Metrics exposes the shared database's commit and flush counters; the
// commits-per-flush ratio across all tenants is the shared-WAL headline.
func (n *Node) Metrics() *metrics.DBCounters { return n.db.Metrics() }

// Close closes every open group, then the database.
func (n *Node) Close() error {
	n.mu.Lock()
	groups := n.groups
	n.groups = map[string]*Store{}
	closed := n.closed
	n.closed = true
	n.mu.Unlock()
	if closed {
		return nil
	}
	for _, s := range groups {
		s.Close()
	}
	return n.db.Close()
}
