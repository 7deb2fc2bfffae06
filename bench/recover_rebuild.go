package main

import (
	"fmt"
	"path/filepath"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/trust"
)

// recoverRebuild is the read-side workload. Set-up writes a history into a
// durable store — 8 tiered peers, 4 transactions each per round, every
// conflict resolved, one Snapshot() three quarters in — and closes it. One
// op is a recovery cycle: open the directory, rebuild every peer from the
// store alone, compare it with the state before the close, close.
//
// Deferred transactions are client soft state that RebuildPeer does not
// restore, so the history resolves every conflict group before the close
// and the check compares instances and decided sets.
type recoverRebuild struct {
	e        *env
	dir      string
	policies []*trust.Policy
	history  []core.TxnID
	want     []*core.Instance // per peer, before the close
	applied  [][]bool         // per peer, per history txn
	failure  error

	snapshotMs float64
	snapshotKB float64
}

func newRecoverRebuild(e *env) workload { return &recoverRebuild{e: e} }

func (w *recoverRebuild) setup(lap func()) error {
	w.dir = filepath.Join(w.e.dir, "store")
	rounds := w.e.scaled(60, 4)
	c, err := newConfederation(w.e, w.dir, contendedPeers, 4, 16, newTracer())
	if err != nil {
		return err
	}
	defer c.close()
	for r := 0; r < rounds; r++ {
		lap()
		ids, err := c.auditedRound()
		if err != nil {
			return err
		}
		w.history = append(w.history, ids...)
		if r == rounds*3/4 {
			start := time.Now()
			if _, err := c.cs.Snapshot(w.e.ctx); err != nil {
				return err
			}
			w.snapshotMs = float64(time.Since(start)) / 1e6
			snap, err := c.cs.LatestSnapshot(w.e.ctx)
			if err != nil {
				return err
			}
			w.snapshotKB = float64(len(store.AppendSnapshot(nil, snap))) / 1024
		}
	}
	for i, p := range c.peers {
		pol, err := tieredPolicy(i, len(c.peers))
		if err != nil {
			return err
		}
		w.policies = append(w.policies, pol)
		w.want = append(w.want, p.Instance().Clone())
		flags := make([]bool, len(w.history))
		for j, id := range w.history {
			flags[j] = p.Engine().Applied(id)
		}
		w.applied = append(w.applied, flags)
	}
	// One unmeasured cycle warms the page cache and the allocator.
	lap()
	_, err = w.cycle()
	return err
}

// cycle is one recovery: open, rebuild and compare every peer, close.
func (w *recoverRebuild) cycle() (int, error) {
	tr := w.e.tr
	schema := benchSchema()
	start := tr.now()
	cs, err := central.Open(schema, w.dir)
	if err != nil {
		return 0, err
	}
	defer cs.Close()
	if tr.on.Load() {
		tr.add(span{Name: "central.open", Start: start, End: tr.now()})
	}
	st := traced(cs, tr, "peer", nil)
	for i, pol := range w.policies {
		id := core.PeerID(fmt.Sprintf("p%d", i))
		start := tr.now()
		p, err := store.RebuildPeer(w.e.ctx, id, schema, pol, st)
		if err != nil {
			return 0, err
		}
		if tr.on.Load() {
			tr.add(span{Name: "rebuild.peer", Peer: string(id), Start: start, End: tr.now()})
		}
		if err := w.compare(i, p); err != nil && w.failure == nil {
			w.failure = err
		}
	}
	return len(w.history), nil
}

func (w *recoverRebuild) compare(i int, p *store.Peer) error {
	if !p.Instance().Equal(w.want[i]) {
		return fmt.Errorf("peer %s: rebuilt instance differs from the one before the close", p.ID())
	}
	if n := len(p.Engine().DeferredIDs()); n != 0 {
		return fmt.Errorf("peer %s: %d deferred after rebuild, none before the close", p.ID(), n)
	}
	for j, id := range w.history {
		if got := p.Engine().Applied(id); got != w.applied[i][j] {
			return fmt.Errorf("peer %s: %v applied=%v after rebuild, %v before the close", p.ID(), id, got, w.applied[i][j])
		}
		if !w.applied[i][j] && !p.Engine().Rejected(id) {
			return fmt.Errorf("peer %s: %v rejected before the close, undecided after rebuild", p.ID(), id)
		}
	}
	return nil
}

func (w *recoverRebuild) mark() {}

func (w *recoverRebuild) step(log *opLog) {
	start := time.Now()
	n, err := w.cycle()
	log.add(time.Since(start), n, err)
}

func (w *recoverRebuild) check() []string {
	if w.failure != nil {
		return []string{w.failure.Error()}
	}
	return nil
}

func (w *recoverRebuild) published() int { return len(w.history) }

func (w *recoverRebuild) layers(r *report, log *opLog) {
	tr := w.e.tr
	r.set("central.open_ms", tr.p50("central.open"))
	r.set("central.snapshot_ms", w.snapshotMs)
	r.set("rebuild.peer_ms", tr.p50("rebuild.peer"))
	r.set("rebuild.snapshot_kb", w.snapshotKB)
	tails := tr.named("peer.replay_from")
	var n int64
	for _, s := range tails {
		n += s.N
	}
	r.set("rebuild.tail_txns_per_peer", ratio(float64(n), float64(len(tails))))

	// Spans exist for the traced cycles only, the last ones of the run.
	opens := tr.named("central.open")
	perCycle := func(spans ...[]span) float64 {
		var ms float64
		for _, ss := range spans {
			for _, s := range ss {
				ms += s.ms()
			}
		}
		return ratio(ms, float64(len(opens)))
	}
	reads := perCycle(tr.named("peer.snapshot_fetch"), tails)
	printShares("recover_rebuild", mean(log.ms[len(log.ms)-len(opens):]), "compare and close",
		share{"central.Open (WAL replay, cache load)", perCycle(opens)},
		share{"store reads (snapshot fetch, tail replay)", reads},
		share{"engine restore", perCycle(tr.named("rebuild.peer")) - reads})
}

func (w *recoverRebuild) close() {}
