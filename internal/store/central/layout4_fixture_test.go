package central

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
	"orchestra/internal/trust"
)

// This file holds what the layout-4 fixtures under testdata/ were made
// with and are checked against: the workload that wrote them and the
// transcript a store reads out of them. It uses only what commit e631cd3,
// the last release that writes layout 4, also has, so the same file
// regenerates the fixtures there (layout4_write_test.go, build tag
// layout4fixture).

// fixturePeers are the fixture's peers; fixtureLate registers after the
// compaction, so the retained snapshot does not cover it.
var (
	fixturePeers = []core.PeerID{"pa", "pb", "pc", "pd"}
	fixtureLate  = core.PeerID("pe")
)

// fixturePolicy is p's trust policy: it trusts the next peer in
// fixturePeers most, so each contested value is accepted by some peers
// and rejected by others.
func fixturePolicy(t *testing.T, p core.PeerID) *trust.Policy {
	t.Helper()
	next := fixturePeers[0]
	for i, q := range fixturePeers {
		if q == p && i+1 < len(fixturePeers) {
			next = fixturePeers[i+1]
		}
	}
	pol, err := trust.Parse(fmt.Sprintf("priority 3 when origin = '%s'\npriority 1 when true", next))
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// writeLayoutFixture drives a durable store in dir through the public
// verbs: rounds in which every peer publishes a value of its own and a
// contested one, as two transactions of one batch, then reconciles; a snapshot and a compaction to the
// horizon; a checkpoint; and more rounds, joined by a peer the snapshot
// does not cover. The publishes fill many epochs, so a sharded layout
// spreads them, and the decisions on them, over every shard.
func writeLayoutFixture(t *testing.T, dir string) {
	t.Helper()
	ctx := context.Background()
	schema := storetest.Schema(t)
	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	peers := map[core.PeerID]*store.Peer{}
	join := func(p core.PeerID) {
		peer, err := store.NewPeer(ctx, p, schema, fixturePolicy(t, p), s)
		if err != nil {
			t.Fatal(err)
		}
		peers[p] = peer
	}
	for _, p := range fixturePeers {
		join(p)
	}
	round := func(r int, ps []core.PeerID) {
		for _, p := range ps {
			for _, u := range []core.Update{
				core.Insert("F", core.Strs(string(p), fmt.Sprintf("own-%d", r), "fn"), p),
				core.Insert("F", core.Strs("shared", fmt.Sprintf("contested-%d", r), "fn-"+string(p)), p),
			} {
				if _, err := peers[p].Edit(u); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := peers[p].PublishAndReconcile(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 0; r < 6; r++ {
		round(r, fixturePeers)
	}
	if _, err := s.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	h := s.CompactionHorizon()
	if h == 0 {
		t.Fatal("nothing to compact")
	}
	if err := s.CompactBefore(ctx, h); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	join(fixtureLate)
	all := append(append([]core.PeerID(nil), fixturePeers...), fixtureLate)
	for r := 6; r < 9; r++ {
		round(r, all)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// storeTranscript reads s out as text: its transaction count and
// frontiers; per peer, its recno, frontier and every decision it holds in
// dseq order; the tail a rebuild replays (ReplayFrom after the retained
// snapshot, or the whole history for a peer the snapshot does not cover);
// and the engine state store.RebuildPeer exports. Two stores that serve
// the same state read out the same text.
func storeTranscript(t *testing.T, s *Store) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	fmt.Fprintf(&b, "txns %d\nstable %d\nsnapshot %d\ncompacted %d\n",
		s.TxnCount(), s.stableEpoch(), s.SnapshotEpoch(), s.CompactedBefore())
	snap, err := s.LatestSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	type seqd struct {
		id core.TxnID
		d  core.RestoredDecision
	}
	bySeq := func(m map[core.TxnID]core.RestoredDecision) []seqd {
		out := make([]seqd, 0, len(m))
		for id, d := range m {
			out = append(out, seqd{id, d})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].d.Seq < out[j].d.Seq })
		return out
	}
	ids, pms := s.sortedPeers()
	for i, p := range ids {
		pm := pms[i]
		pm.mu.Lock()
		fmt.Fprintf(&b, "peer %s recno %d last %d nextseq %d\n", p, pm.recno, pm.lastEpoch, pm.nextSeq)
		held := map[core.TxnID]core.RestoredDecision{}
		pm.decided.Range(func(id core.TxnID, d core.RestoredDecision) { held[id] = d })
		pm.mu.Unlock()
		for _, e := range bySeq(held) {
			fmt.Fprintf(&b, "  decided %d %s %v\n", e.d.Seq, e.id, e.d.Decision)
		}
		from, after := core.Epoch(0), int64(-1)
		if ps := snap.Peer(p); ps != nil {
			from, after = snap.Epoch, ps.DecisionSeq
		}
		log, decs, err := s.ReplayFrom(ctx, p, from, after)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "  replay from %d after %d\n", from, after)
		for _, pub := range log {
			fmt.Fprintf(&b, "    txn %s epoch %d order %d\n", pub.Txn.ID, pub.Txn.Epoch, pub.Txn.Order)
		}
		for _, e := range bySeq(decs) {
			fmt.Fprintf(&b, "    decision %d %s %v\n", e.d.Seq, e.id, e.d.Decision)
		}
		peer, err := store.RebuildPeer(ctx, p, s.schema, fixturePolicy(t, p), s)
		if err != nil {
			t.Fatal(err)
		}
		es := peer.Engine().ExportSnapshot()
		fmt.Fprintf(&b, "  rebuilt nextseq %d applied %v rejected %v\n", es.NextSeq, es.Applied, es.Rejected)
		for _, rel := range es.Relations {
			for _, row := range rel.Rows {
				fmt.Fprintf(&b, "    %s%v by %s\n", rel.Name, row.Tuple, row.By)
			}
		}
	}
	return b.String()
}
