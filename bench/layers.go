package main

import (
	"fmt"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/metrics"
	"orchestra/internal/store"
)

// coreAgg sums the engine's own work counters (core.ReconcileStats and the
// decision lists of each Result) over the measured phase.
type coreAgg struct {
	stats                        core.ReconcileStats
	accepted, rejected, deferred int
	resolves                     int
}

func (a *coreAgg) observe(res *core.Result) {
	if res == nil {
		return
	}
	s := res.Stats
	a.stats.Candidates += s.Candidates
	a.stats.ExtensionTxns += s.ExtensionTxns
	a.stats.ConflictPairs += s.ConflictPairs
	a.stats.ConflictsFound += s.ConflictsFound
	a.stats.DeferredCarried += s.DeferredCarried
	a.stats.CheckNanos += s.CheckNanos
	a.stats.ConflictNanos += s.ConflictNanos
	a.stats.GroupNanos += s.GroupNanos
	a.stats.ApplyNanos += s.ApplyNanos
	a.stats.SoftStateNanos += s.SoftStateNanos
	a.accepted += len(res.Accepted)
	a.rejected += len(res.Rejected)
	a.deferred += len(res.Deferred)
}

// observePipeline folds in a System.Pipeline() delta, for workloads that
// never see the Results (the fleet). The pipeline carries no extension,
// carried-deferral or decision counts; those stay 0.
func (a *coreAgg) observePipeline(from, to metrics.PipelineSnapshot) {
	a.stats.Candidates += int(to.Candidates - from.Candidates)
	a.stats.ConflictPairs += int(to.ConflictPairs - from.ConflictPairs)
	a.stats.ConflictsFound += int(to.ConflictsFound - from.ConflictsFound)
	a.stats.CheckNanos += int64(to.CheckTime - from.CheckTime)
	a.stats.ConflictNanos += int64(to.ConflictTime - from.ConflictTime)
	a.stats.GroupNanos += int64(to.GroupTime - from.GroupTime)
	a.stats.ApplyNanos += int64(to.ApplyTime - from.ApplyTime)
	a.stats.SoftStateNanos += int64(to.SoftStateTime - from.SoftStateTime)
}

// report writes the core.* metrics: stage times and counts per op, the two
// chain-growth signals per txn and per candidate.
func (a *coreAgg) report(r *report, ops, txns int) {
	perOp := func(v float64) float64 { return ratio(v, float64(ops)) }
	r.set("core.check_ms", perOp(float64(a.stats.CheckNanos)/1e6))
	r.set("core.conflict_ms", perOp(float64(a.stats.ConflictNanos)/1e6))
	r.set("core.group_ms", perOp(float64(a.stats.GroupNanos)/1e6))
	r.set("core.apply_ms", perOp(float64(a.stats.ApplyNanos)/1e6))
	r.set("core.softstate_ms", perOp(float64(a.stats.SoftStateNanos)/1e6))
	r.set("core.candidates_per_txn", ratio(float64(a.stats.Candidates), float64(txns)))
	r.set("core.ext_txns_per_candidate", ratio(float64(a.stats.ExtensionTxns), float64(a.stats.Candidates)))
	r.set("core.conflict_pairs", perOp(float64(a.stats.ConflictPairs)))
	r.set("core.conflicts_found", perOp(float64(a.stats.ConflictsFound)))
	r.set("core.deferred_carried", perOp(float64(a.stats.DeferredCarried)))
	r.set("core.accepted", perOp(float64(a.accepted)))
	r.set("core.rejected", perOp(float64(a.rejected)))
	r.set("core.deferred", perOp(float64(a.deferred)))
	r.set("core.resolves", perOp(float64(a.resolves)))
}

// reportCentral writes the central.* counters of the measured phase.
func reportCentral(r *report, from, to metrics.StoreSnapshot) {
	r.set("central.publishes", float64(to.Publishes-from.Publishes))
	r.set("central.epoch_contention", float64(to.EpochContention-from.EpochContention))
	r.set("central.peer_contention", float64(to.PeerContention-from.PeerContention))
	r.set("central.shard_contention", float64(to.ShardContentionTotal()-from.ShardContentionTotal()))
	r.set("central.decision_round_trips", float64(to.DecisionRoundTrips-from.DecisionRoundTrips))
}

// dbDelta is to-from of two reldb counter snapshots (peak: the later one).
func dbDelta(from, to metrics.DBSnapshot) metrics.DBSnapshot {
	return metrics.DBSnapshot{
		Commits:        to.Commits - from.Commits,
		WALAppends:     to.WALAppends - from.WALAppends,
		GroupFlushes:   to.GroupFlushes - from.GroupFlushes,
		GroupedCommits: to.GroupedCommits - from.GroupedCommits,
		GroupPeak:      to.GroupPeak,
		TableWaits:     to.TableWaits - from.TableWaits,
	}
}

// reportReldb writes the reldb.* counters of the measured phase, summed
// over the databases given.
func reportReldb(r *report, txns int, deltas ...metrics.DBSnapshot) {
	var sum metrics.DBSnapshot
	for _, d := range deltas {
		sum.Commits += d.Commits
		sum.WALAppends += d.WALAppends
		sum.GroupFlushes += d.GroupFlushes
		sum.GroupedCommits += d.GroupedCommits
		sum.TableWaits += d.TableWaits
		sum.GroupPeak = max(sum.GroupPeak, d.GroupPeak)
	}
	r.set("reldb.commits_per_txn", ratio(float64(sum.Commits), float64(txns)))
	r.set("reldb.wal_appends_per_txn", ratio(float64(sum.WALAppends), float64(txns)))
	r.set("reldb.commits_per_flush", ratio(float64(sum.GroupedCommits), float64(sum.GroupFlushes)))
	r.set("reldb.group_peak", float64(sum.GroupPeak))
	r.set("reldb.table_waits", float64(sum.TableWaits))
}

// peerTimes sums the store/local time split the peers keep themselves.
func peerTimes(peers []*store.Peer) (storeT, localT time.Duration) {
	for _, p := range peers {
		storeT += p.StoreTime()
		localT += p.LocalTime()
	}
	return storeT, localT
}

// reportPeerTimes writes the peers' store/local split per transaction and
// returns it per operation.
func reportPeerTimes(r *report, ops, txns int, store0, local0, store1, local1 time.Duration) (storeMs, localMs float64) {
	storeMs, localMs = float64(store1-store0)/1e6, float64(local1-local0)/1e6
	r.set("peer.store_ms_per_txn", ratio(storeMs, float64(txns)))
	r.set("peer.local_ms_per_txn", ratio(localMs, float64(txns)))
	return ratio(storeMs, float64(ops)), ratio(localMs, float64(ops))
}

// share is one part of an operation's time.
type share struct {
	name string
	ms   float64
}

// printShares prints where the mean operation's time went: the parts given
// and what is left, which belongs to rest. It is how a traced run shows
// which layer its workload spends its time in.
func printShares(workload string, opMs float64, rest string, parts ...share) {
	left := opMs
	for _, p := range parts {
		left -= p.ms
	}
	fmt.Printf("%s: mean op %.3f ms =", workload, opMs)
	for _, p := range append(parts, share{rest, left}) {
		fmt.Printf(" %s %.3f (%.0f %%);", p.name, p.ms, 100*ratio(p.ms, opMs))
	}
	fmt.Println()
}

// mean is the arithmetic mean of v (0 if empty).
func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// transcript checks that the peers left nothing deferred and that each of
// them decided every one of ids, and returns the decisions: one byte per
// (peer, id) in order, 'A' accepted or 'R' rejected. Equal transcripts are
// what "the same decisions" means in the replay checks.
func transcript(peers []*store.Peer, ids []core.TxnID) ([]byte, error) {
	script := make([]byte, 0, len(peers)*len(ids))
	for _, p := range peers {
		if n := len(p.Engine().DeferredIDs()); n > 0 {
			return nil, fmt.Errorf("peer %s: %d transactions left deferred", p.ID(), n)
		}
		for _, id := range ids {
			switch {
			case p.Engine().Applied(id):
				script = append(script, 'A')
			case p.Engine().Rejected(id):
				script = append(script, 'R')
			default:
				return nil, fmt.Errorf("peer %s never decided %v", p.ID(), id)
			}
		}
	}
	return script, nil
}
