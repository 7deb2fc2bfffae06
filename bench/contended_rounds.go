package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/metrics"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/trust"
)

// tieredPolicy is peer i's trust over n peers in three rotating tiers: the
// two peers after i rank 3, the next three rank 2, the rest rank 1. Equal
// ranks defer, unequal ones accept and reject.
func tieredPolicy(i, n int) (*trust.Policy, error) {
	tiers := map[int][]string{}
	for d := 1; d < n; d++ {
		rank := 1
		switch {
		case d <= 2:
			rank = 3
		case d <= 5:
			rank = 2
		}
		tiers[rank] = append(tiers[rank], fmt.Sprintf("'p%d'", (i+d)%n))
	}
	var rules []string
	for rank := 3; rank >= 1; rank-- {
		if len(tiers[rank]) > 0 {
			rules = append(rules, fmt.Sprintf("priority %d when origin in (%s)", rank, strings.Join(tiers[rank], ", ")))
		}
	}
	return trust.Parse(strings.Join(rules, "\n"))
}

// confederation is an in-process System of tiered peers over one durable
// central store, edited in rounds by a windowed generator: each round every
// peer edits perPeer transactions, everyone reconciles, and every peer
// resolves all its conflict groups for option 0. contended_rounds measures
// it; recover_rebuild uses it to write the history it recovers.
type confederation struct {
	e       *env
	perPeer int
	gen     *windowGen
	cs      *central.Store
	sys     *orchestra.System
	peers   []*store.Peer
	agg     coreAgg
	txns    int // published so far

	// transcripts[r] is round r's decision transcript, kept for the first
	// keep rounds.
	transcripts [][]byte
	keep        int
}

// newConfederation opens the store in dir ("" keeps it in memory) and
// registers n peers behind the given boundary wrapper.
func newConfederation(e *env, dir string, n, perPeer, window int, tr *tracer) (*confederation, error) {
	schema := benchSchema()
	cs, err := central.Open(schema, dir)
	if err != nil {
		return nil, err
	}
	st := traced(cs, tr, "peer", nil)
	sys, err := orchestra.NewSystem(schema, orchestra.WithPeerStores(func(core.PeerID) (store.Store, error) { return st, nil }))
	if err != nil {
		cs.Close()
		return nil, err
	}
	c := &confederation{e: e, perPeer: perPeer, gen: newWindowGen(e.seed, window), cs: cs, sys: sys}
	for i := 0; i < n; i++ {
		pol, err := tieredPolicy(i, n)
		if err != nil {
			cs.Close()
			return nil, err
		}
		p, err := sys.AddPeer(core.PeerID(fmt.Sprintf("p%d", i)), pol)
		if err != nil {
			cs.Close()
			return nil, err
		}
		c.peers = append(c.peers, p)
	}
	return c, nil
}

// round runs one round and returns the transactions it published, all of
// them decided by every peer when it returns.
func (c *confederation) round() ([]core.TxnID, error) {
	var ids []core.TxnID
	for _, p := range c.peers {
		taken := map[int]bool{}
		for i := 0; i < c.perPeer; i++ {
			x, err := c.gen.peerEdit(p, taken)
			if err != nil {
				return nil, err
			}
			ids = append(ids, x.ID)
		}
	}
	c.gen.nextRound()
	results, err := c.sys.ReconcileAll(c.e.ctx)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		c.agg.observe(res)
	}
	for _, p := range c.peers {
		for n := 0; ; n++ {
			groups := p.Engine().ConflictGroups()
			if len(groups) == 0 {
				break
			}
			if n > 100*len(ids) {
				return nil, fmt.Errorf("peer %s: conflict groups do not drain", p.ID())
			}
			res, err := p.Resolve(c.e.ctx, groups[0].Conflict, 0)
			if err != nil {
				return nil, err
			}
			c.agg.observe(res)
			c.agg.resolves++
		}
	}
	c.txns += len(ids)
	return ids, nil
}

// audit checks that the round left nothing deferred and that every peer
// decided every transaction of it, and keeps the round's transcript.
func (c *confederation) audit(ids []core.TxnID) error {
	script, err := transcript(c.peers, ids)
	if err == nil && len(c.transcripts) < c.keep {
		c.transcripts = append(c.transcripts, script)
	}
	return err
}

// auditedRound is a round and its audit, for where neither is timed.
func (c *confederation) auditedRound() ([]core.TxnID, error) {
	ids, err := c.round()
	if err != nil {
		return nil, err
	}
	return ids, c.audit(ids)
}

func (c *confederation) close() { c.cs.Close() }

// contendedRounds is the engine-bound workload: 8 tiered peers, 64
// single-update transactions each per round in a 256-key window.
type contendedRounds struct {
	e       *env
	c       *confederation
	warm    int
	failure error

	store0   metrics.StoreSnapshot
	db0      metrics.DBSnapshot
	st0, lt0 time.Duration
}

const contendedPeers = 8

// replayRounds is how many leading rounds a second run must reproduce.
const replayRounds = 5

func newContendedRounds(e *env) workload { return &contendedRounds{e: e} }

func (w *contendedRounds) open(dir string, tr *tracer) (*confederation, error) {
	perPeer := w.e.scaled(64, 2)
	c, err := newConfederation(w.e, dir, contendedPeers, perPeer, 4*perPeer, tr)
	if err != nil {
		return nil, err
	}
	c.keep = replayRounds
	return c, nil
}

func (w *contendedRounds) setup(lap func()) error {
	c, err := w.open(filepath.Join(w.e.dir, "store"), w.e.tr)
	if err != nil {
		return err
	}
	w.c = c
	w.warm = w.e.scaled(5, 1)
	for r := 0; r < w.warm; r++ {
		lap()
		if _, err := c.auditedRound(); err != nil {
			return err
		}
	}
	return nil
}

func (w *contendedRounds) mark() {
	w.store0 = w.c.cs.Metrics().Snapshot()
	w.db0 = w.c.cs.DBMetrics().Snapshot()
	w.st0, w.lt0 = peerTimes(w.c.peers)
	w.c.agg = coreAgg{}
}

func (w *contendedRounds) step(log *opLog) {
	start := time.Now()
	ids, err := w.c.round()
	log.add(time.Since(start), len(ids), err)
	if err == nil && w.failure == nil {
		w.failure = w.c.audit(ids)
	}
}

// check adds the replay: the same seed on a second, in-memory confederation
// must reproduce the first rounds' decisions exactly.
func (w *contendedRounds) check() []string {
	var failed []string
	if w.failure != nil {
		failed = append(failed, w.failure.Error())
	}
	twin, err := w.open("", newTracer())
	if err != nil {
		return append(failed, "replay: "+err.Error())
	}
	defer twin.close()
	for r := 0; r < len(w.c.transcripts); r++ {
		if _, err := twin.auditedRound(); err != nil {
			return append(failed, "replay: "+err.Error())
		}
		if string(twin.transcripts[r]) != string(w.c.transcripts[r]) {
			failed = append(failed, fmt.Sprintf("replay: round %d decisions differ from the first run's", r))
		}
	}
	return failed
}

func (w *contendedRounds) published() int { return w.c.txns }

func (w *contendedRounds) layers(r *report, log *opLog) {
	ops := len(log.ms)
	w.c.agg.report(r, ops, log.txns)
	reportCentral(r, w.store0, w.c.cs.Metrics().Snapshot())
	reportReldb(r, log.txns, dbDelta(w.db0, w.c.cs.DBMetrics().Snapshot()))
	st1, lt1 := peerTimes(w.c.peers)
	storeMs, localMs := reportPeerTimes(r, ops, log.txns, w.st0, w.lt0, st1, lt1)
	printShares("contended_rounds", mean(log.ms), "generator and driver",
		share{"engine (peers' local time)", localMs}, share{"store calls", storeMs})
	r.set("central.publish_ms", w.e.tr.p50("peer.publish"))
	r.set("central.begin_ms", w.e.tr.p50("peer.begin"))
	r.set("central.decide_ms", w.e.tr.p50("peer.decide"))
}

func (w *contendedRounds) close() {
	if w.c != nil {
		w.c.close()
	}
}
