package metrics

import (
	"fmt"
	"sync/atomic"
)

// DBCounters aggregates concurrency counters for the reldb storage engine:
// how many write transactions committed, how the WAL group-commit path
// batched them (the flush-economy signal — commits per flush is the
// group-commit win), and how often transactions had to wait for a table
// lock (the sharding signal — a hot counter means concurrent transactions
// fight over the same tables). All methods are safe for concurrent use and
// nil-safe, so an uninstrumented database can carry a nil *DBCounters.
type DBCounters struct {
	commits atomic.Int64

	groupFlushes   atomic.Int64
	groupedCommits atomic.Int64
	groupPeak      atomic.Int64

	tableWaits atomic.Int64
}

// ObserveCommit counts one committed write transaction.
func (c *DBCounters) ObserveCommit() {
	if c == nil {
		return
	}
	c.commits.Add(1)
}

// ObserveGroupFlush records one group-commit flush carrying commits
// transaction records in a single WAL write (and at most one
// fsync-equivalent).
func (c *DBCounters) ObserveGroupFlush(commits int) {
	if c == nil {
		return
	}
	c.groupFlushes.Add(1)
	c.groupedCommits.Add(int64(commits))
	atomicMax(&c.groupPeak, int64(commits))
}

// ObserveTableWait counts one transaction that had to wait for a table
// lock (the TryLock fast path failed).
func (c *DBCounters) ObserveTableWait() {
	if c == nil {
		return
	}
	c.tableWaits.Add(1)
}

// DBSnapshot is a point-in-time copy of DBCounters.
type DBSnapshot struct {
	Commits int64 // committed write transactions
	// WALAppends is always 0: every durable commit rides a group flush.
	// The field stays only because bench/layers.go reads it.
	WALAppends int64

	GroupFlushes   int64 // group-commit flushes (one write + one sync each)
	GroupedCommits int64 // commits that rode a group flush
	GroupPeak      int64 // most commits carried by a single flush

	TableWaits int64 // table-lock acquisitions that had to wait
}

// Snapshot returns a copy of the counters (each field read atomically).
// A nil receiver yields the zero snapshot.
func (c *DBCounters) Snapshot() DBSnapshot {
	if c == nil {
		return DBSnapshot{}
	}
	return DBSnapshot{
		Commits:        c.commits.Load(),
		GroupFlushes:   c.groupFlushes.Load(),
		GroupedCommits: c.groupedCommits.Load(),
		GroupPeak:      c.groupPeak.Load(),
		TableWaits:     c.tableWaits.Load(),
	}
}

// String renders the snapshot as a compact one-line summary.
func (s DBSnapshot) String() string {
	return fmt.Sprintf(
		"commits=%d gflushes=%d gcommits=%d gpeak=%d tablewaits=%d",
		s.Commits, s.GroupFlushes, s.GroupedCommits, s.GroupPeak, s.TableWaits)
}
