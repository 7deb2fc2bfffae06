package central

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
)

// crashImage copies the store directory while the store is still open — the
// moral equivalent of the process dying after its last commit returned: the
// copy sees exactly the bytes the WAL writes produced, with none of the
// tidying a clean Close performs.
func crashImage(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dst
}

// roundsMarker separates the live reconciliation transcript (identical with
// and without compaction) from the storage-dependent recovery section.
const roundsMarker = "txns="

// differentialWorkload drives a deterministic multi-peer publish/reconcile
// history against a durable store and returns a full transcript: every step's accept/reject/defer decisions, the live
// stable-epoch answer after every step, and the state recovered from a
// crash image of the directory. With compact set, every round ends with a
// snapshot and a compaction to the allowed horizon — which may only change
// what is stored, never any decision, so the transcript through the
// roundsMarker must be bit-identical to the uncompacted run.
func differentialWorkload(t *testing.T, compact bool) string {
	t.Helper()
	const rounds = 4
	ctx := context.Background()
	schema := storetest.Schema(t)
	dir := t.TempDir()
	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}

	// Unequal trust so contended keys produce real rejects, not just
	// deferrals: everyone ranks a over b over c.
	trust := core.TrustOrigins(map[core.PeerID]int{"a": 3, "b": 2, "c": 1})
	ids := []core.PeerID{"a", "b", "c"}
	peers := make(map[core.PeerID]*store.Peer, len(ids))
	for _, id := range ids {
		p, err := store.NewPeer(ctx, id, schema, trust, s)
		if err != nil {
			t.Fatal(err)
		}
		peers[id] = p
	}
	var universe []core.TxnID
	for _, id := range ids {
		for seq := uint64(0); seq < 2*rounds; seq++ {
			universe = append(universe, core.TxnID{Origin: id, Seq: seq})
		}
	}

	var b strings.Builder
	sortedIDs := func(xs []core.TxnID) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = fmt.Sprintf("%s/%d", x.Origin, x.Seq)
		}
		sort.Strings(out)
		return out
	}
	for r := 0; r < rounds; r++ {
		for _, id := range ids {
			p := peers[id]
			// One unique key and one key contended across all three peers.
			if _, err := p.Edit(core.Insert("F",
				core.Strs(string(id), fmt.Sprintf("p-%d", r), "fn"), id)); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Edit(core.Insert("F",
				core.Strs("shared", fmt.Sprintf("p-%d", r), "fn-"+string(id)), id)); err != nil {
				t.Fatal(err)
			}
			res, err := p.PublishAndReconcile(ctx)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "r%d %s recno=%d acc=%v rej=%v def=%v stable=%d\n",
				r, id, res.Recno, sortedIDs(res.Accepted), sortedIDs(res.Rejected),
				sortedIDs(res.Deferred), s.stableEpoch())
		}
		if compact {
			if _, err := s.Snapshot(ctx); err != nil {
				t.Fatalf("round %d snapshot: %v", r, err)
			}
			if h := s.CompactionHorizon(); h > s.CompactedBefore() {
				if err := s.CompactBefore(ctx, h); err != nil {
					t.Fatalf("round %d compact to %d: %v", r, h, err)
				}
			}
		}
	}
	fmt.Fprintf(&b, "%s%d\n", roundsMarker, s.TxnCount())
	// Snapshot the directory before Close (crash image), then shut down.
	crashDir := crashImage(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Post-crash recovery must land on the same user-visible state: every
	// peer rebuilt from the recovered store alone (full replay, or snapshot
	// + tail once compaction has dropped the early epochs) carries the same
	// instance and per-transaction verdicts, and a fresh peer's candidate
	// window (visibility through the recovered stable frontier) is
	// identical.
	s2, err := Open(schema, crashDir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	fmt.Fprintf(&b, "recovered txns=%d\n", s2.TxnCount())
	for _, id := range ids {
		if err := s2.RegisterPeer(ctx, id, trust); err != nil {
			t.Fatal(err)
		}
	}
	if !compact {
		// Uncompacted stores also pin the raw replayed decision sequences.
		for _, id := range ids {
			_, decisions, err := s2.ReplayFrom(ctx, id, 0, -1)
			if err != nil {
				t.Fatal(err)
			}
			type dec struct {
				id  string
				d   core.Decision
				seq int64
			}
			var ds []dec
			for txn, rd := range decisions {
				ds = append(ds, dec{fmt.Sprintf("%s/%d", txn.Origin, txn.Seq), rd.Decision, rd.Seq})
			}
			sort.Slice(ds, func(i, j int) bool { return ds[i].seq < ds[j].seq })
			fmt.Fprintf(&b, "replay %s:", id)
			for _, d := range ds {
				fmt.Fprintf(&b, " %s=%d@%d", d.id, d.d, d.seq)
			}
			fmt.Fprintln(&b)
		}
	}
	for _, id := range ids {
		p, err := store.RebuildPeer(ctx, id, schema, trust, s2)
		if err != nil {
			t.Fatalf("rebuild %s: %v", id, err)
		}
		var acc, rej []core.TxnID
		for _, x := range universe {
			if p.Engine().Applied(x) {
				acc = append(acc, x)
			}
			if p.Engine().Rejected(x) {
				rej = append(rej, x)
			}
		}
		var inst []string
		for _, tp := range p.Instance().Tuples("F") {
			inst = append(inst, tp.String())
		}
		fmt.Fprintf(&b, "rebuilt %s acc=%v rej=%v inst=%v\n",
			id, sortedIDs(acc), sortedIDs(rej), inst)
	}
	if err := s2.RegisterPeer(ctx, "fresh", core.TrustAll(1)); err != nil {
		t.Fatal(err)
	}
	rec, err := s2.BeginReconciliation(ctx, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	var window []string
	for _, c := range rec.Candidates {
		window = append(window, fmt.Sprintf("%s/%d@%d", c.Txn.ID.Origin, c.Txn.ID.Seq, c.Txn.Order))
	}
	fmt.Fprintf(&b, "fresh window=%v\n", window)
	return b.String()
}

// roundsPrefix cuts a transcript at the roundsMarker: the live decision
// transcript that a compacting run must reproduce.
func roundsPrefix(t *testing.T, transcript string) string {
	t.Helper()
	i := strings.Index(transcript, roundsMarker)
	if i < 0 {
		t.Fatalf("transcript lacks %q marker:\n%s", roundsMarker, transcript)
	}
	return transcript[:i]
}

// TestDifferentialMatrix pins the reconciliation transcript — decisions,
// live stable-epoch answers, post-crash rebuilt state — with compaction off
// and on. The transcript is a function of the published history alone, so a
// second run must reproduce it bit for bit; compaction may additionally
// change what is stored (the whole point), but never a decision, a rebuilt
// peer's state, or a stable-epoch answer.
func TestDifferentialMatrix(t *testing.T) {
	baseline := differentialWorkload(t, false)
	if !strings.Contains(baseline, "rej=[") || !strings.Contains(baseline, "acc=[") {
		t.Fatalf("workload produced no decisions:\n%s", baseline)
	}
	// The workload must actually exercise rejects (contended keys with
	// unequal trust), or the differential would prove too little.
	if !strings.Contains(baseline, "rej=[b/") && !strings.Contains(baseline, "rej=[c/") {
		t.Fatalf("workload never rejected a transaction:\n%s", baseline)
	}
	baselineCompact := differentialWorkload(t, true)
	// Compaction must not touch a single live decision or stable answer…
	if got, want := roundsPrefix(t, baselineCompact), roundsPrefix(t, baseline); got != want {
		t.Fatalf("compaction changed the live transcript:\n--- compacted ---\n%s\n--- baseline ---\n%s", got, want)
	}
	// …and must actually have compacted something, or the cell proves
	// nothing.
	if baselineCompact == baseline {
		t.Fatalf("compacting run left the storage transcript untouched:\n%s", baselineCompact)
	}
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			want := baseline
			if compact {
				want = baselineCompact
			}
			if got := differentialWorkload(t, compact); got != want {
				t.Errorf("transcript not reproduced by a second run:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}
