package store

import (
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"orchestra/internal/core"
)

// testSnapshot builds a representative store snapshot: two peers with
// populated engine states (decision sets, instance rows with producers) and a
// residue carrying a multi-update transaction with antecedents.
func testSnapshot() *Snapshot {
	return &Snapshot{
		Epoch: 7,
		Peers: []PeerSnapshot{
			{
				LastEpoch:   5,
				Recno:       3,
				DecisionSeq: 9,
				Engine: core.EngineSnapshot{
					Peer:     "pa",
					NextSeq:  4,
					Applied:  []core.TxnID{{Origin: "pa", Seq: 0}, {Origin: "pb", Seq: 2}},
					Rejected: []core.TxnID{{Origin: "pz", Seq: 1}},
					Relations: []core.RelationSnapshot{
						{Name: "F", Rows: []core.RowSnapshot{
							{Tuple: core.Strs("mouse", "prot2", "immune"), By: core.TxnID{Origin: "pb", Seq: 2}},
							{Tuple: core.Strs("rat", "prot1", "cell-metab"), By: core.TxnID{Origin: "pa", Seq: 0}},
						}},
					},
				},
			},
			{
				LastEpoch:   7,
				Recno:       1,
				DecisionSeq: 2,
				Engine:      core.EngineSnapshot{Peer: "pq", NextSeq: 0},
			},
		},
		Residue: fuzzSeedBatch(),
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	snap := testSnapshot()
	payload := AppendSnapshot(nil, snap)
	got, err := DecodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != snap.Epoch || len(got.Peers) != len(snap.Peers) {
		t.Fatalf("decoded header: epoch=%d peers=%d", got.Epoch, len(got.Peers))
	}
	for i := range snap.Peers {
		want, have := &snap.Peers[i], &got.Peers[i]
		if have.LastEpoch != want.LastEpoch || have.Recno != want.Recno || have.DecisionSeq != want.DecisionSeq {
			t.Errorf("peer %d header mismatch: %+v", i, have)
		}
		if have.Engine.Peer != want.Engine.Peer || have.Engine.NextSeq != want.Engine.NextSeq {
			t.Errorf("peer %d engine header mismatch", i)
		}
		if !reflect.DeepEqual(have.Engine.Applied, want.Engine.Applied) ||
			!reflect.DeepEqual(have.Engine.Rejected, want.Engine.Rejected) {
			t.Errorf("peer %d decision sets mismatch", i)
		}
		if len(have.Engine.Relations) != len(want.Engine.Relations) {
			t.Fatalf("peer %d relations: %d vs %d", i, len(have.Engine.Relations), len(want.Engine.Relations))
		}
		for j, wr := range want.Engine.Relations {
			hr := have.Engine.Relations[j]
			if hr.Name != wr.Name || len(hr.Rows) != len(wr.Rows) {
				t.Fatalf("relation %s with %d rows decoded as %s with %d", wr.Name, len(wr.Rows), hr.Name, len(hr.Rows))
			}
			for k, row := range wr.Rows {
				if !hr.Rows[k].Tuple.Equal(row.Tuple) || hr.Rows[k].By != row.By {
					t.Errorf("row %d/%d: %v, want %v", j, k, hr.Rows[k], row)
				}
			}
		}
	}
	if len(got.Residue) != len(snap.Residue) {
		t.Fatalf("residue: %d vs %d", len(got.Residue), len(snap.Residue))
	}
	for i := range snap.Residue {
		if got.Residue[i].Txn.ID != snap.Residue[i].Txn.ID ||
			len(got.Residue[i].Antecedents) != len(snap.Residue[i].Antecedents) {
			t.Errorf("residue %d mismatch", i)
		}
		for j, a := range snap.Residue[i].Antecedents {
			if got.Residue[i].Antecedents[j] != a {
				t.Errorf("residue %d antecedent %d mismatch", i, j)
			}
		}
	}
	if p := got.Peer("pq"); p == nil || p.Recno != 1 {
		t.Errorf("Peer lookup: %+v", p)
	}
	if got.Peer("nobody") != nil {
		t.Error("Peer lookup invented an entry")
	}
}

func TestSnapshotCodecErrors(t *testing.T) {
	payload := AppendSnapshot(nil, testSnapshot())
	if _, err := DecodeSnapshot(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := DecodeSnapshot([]byte{snapshotVersion + 1}); err == nil {
		t.Error("wrong version accepted")
	}
	for _, cut := range []int{1, 3, len(payload) / 2, len(payload) - 1} {
		if _, err := DecodeSnapshot(payload[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// goldenSchema is the schema of goldenEngineSnapshot's engines.
func goldenSchema() *core.Schema {
	fn := core.NewRelation("Function", 2, "organism", "protein", "function")
	xref := core.NewRelation("XRef", 3, "organism", "protein", "db")
	xref.ForeignKeys = []core.ForeignKey{{Attrs: []int{0, 1}, RefRel: "Function"}}
	note := core.NewRelation("Note", 1, "id", "text")
	return core.MustSchema(fn, xref, note)
}

// goldenEngineSnapshot builds a store snapshot whose engine states come
// from real engines rather than literals: three relations, a foreign key, a
// key-moving modify, a rejected transaction, transactions imported through
// a reconciliation and local transactions on top of them.
func goldenEngineSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	s := goldenSchema()
	g := core.NewAntecedentGraph(s)
	local := func(e *core.Engine, us ...core.Update) *core.Transaction {
		t.Helper()
		x, _, err := e.NewLocalTransaction(us...)
		if err != nil {
			t.Fatalf("local txn at %s: %v", e.Peer(), err)
		}
		if err := g.Add(x); err != nil {
			t.Fatal(err)
		}
		return x
	}
	reconcile := func(e *core.Engine, xs ...*core.Transaction) {
		t.Helper()
		var cands []*core.Candidate
		for _, x := range xs {
			ext, err := g.Extension(x.ID, e.Applied)
			if err != nil {
				t.Fatal(err)
			}
			cands = append(cands, &core.Candidate{Txn: x, Priority: 1, Ext: ext})
		}
		if _, err := e.Reconcile(cands); err != nil {
			t.Fatal(err)
		}
	}

	pa := core.NewEngine("pa", s, core.TrustAll(1))
	pb := core.NewEngine("pb", s, core.TrustAll(1))
	pc := core.NewEngine("pc", s, core.TrustAll(1))
	xa0 := local(pa,
		core.Insert("Function", core.Strs("rat", "p1", "kinase"), "pa"),
		core.Insert("XRef", core.Strs("rat", "p1", "genbank"), "pa"),
		core.Insert("Note", core.Strs("n1", "draft"), "pa"))
	xa1 := local(pa,
		core.Modify("Function", core.Strs("rat", "p1", "kinase"), core.Strs("rat", "p1", "ligase"), "pa"),
		core.Modify("Note", core.Strs("n1", "draft"), core.Strs("n2", "draft"), "pa"))
	xc0 := local(pc, core.Insert("Note", core.Strs("n2", "final"), "pc"))
	reconcile(pb, xa0, xa1)
	reconcile(pb, xc0) // key n2 is bound by now: rejected
	local(pb,
		core.Insert("Function", core.Strs("mouse", "p2", "immune"), "pb"),
		core.Insert("XRef", core.Strs("rat", "p1", "uniprot"), "pb"))
	local(pb,
		core.Modify("Function", core.Strs("mouse", "p2", "immune"), core.Strs("mouse", "p3", "immune"), "pb"),
		core.Modify("Note", core.Strs("n2", "draft"), core.Strs("n2", "final"), "pb"))
	if !pb.Rejected(xc0.ID) {
		t.Fatalf("%s not rejected at pb", xc0.ID)
	}
	return &Snapshot{
		Epoch: 4,
		Peers: []PeerSnapshot{
			{LastEpoch: 4, Recno: 0, DecisionSeq: 2, Engine: *pa.ExportSnapshot()},
			{LastEpoch: 4, Recno: 2, DecisionSeq: 5, Engine: *pb.ExportSnapshot()},
		},
	}
}

// goldenV1 is goldenEngineSnapshot in the version-1 layout, as releases
// before version 2 wrote it: every held value in its relation, then again
// with its relation's name and producer. It is the fixture of the refusal.
const goldenV1 = "0104020400020270610202027061000270610100030846756e6374696f6e011101037261740102703101066c6967617365044e6f7465010b01026e320105647261667404585265660112010372617401027031010767656e62616e6b030846756e6374696f6e1101037261740102703101066c696761736502706101044e6f74650b01026e320105647261667402706101045852656612010372617401027031010767656e62616e6b027061000402050270620204027061000270610102706200027062010102706300030846756e6374696f6e021101037261740102703101066c69676173651301056d6f757365010270330106696d6d756e65044e6f7465010b01026e32010566696e616c04585265660212010372617401027031010767656e62616e6b120103726174010270310107756e6970726f74050846756e6374696f6e1101037261740102703101066c6967617365027061010846756e6374696f6e1301056d6f757365010270330106696d6d756e6502706201044e6f74650b01026e32010566696e616c02706201045852656612010372617401027031010767656e62616e6b027061000458526566120103726174010270310107756e6970726f7402706200020100"

// TestEngineSnapshotGolden pins the bytes of exported engine states through
// the snapshot codec: the instance, the decided sets and the provenance an
// engine exports must not move a byte whatever the engine keeps them in,
// since retained snapshots are decoded by later releases.
func TestEngineSnapshotGolden(t *testing.T) {
	const want = "0204020400020270610202027061000270610100030846756e6374696f6e011101037261740102703101066c696761736502706101044e6f7465010b01026e32010564726166740270610104585265660112010372617401027031010767656e62616e6b027061000402050270620204027061000270610102706200027062010102706300030846756e6374696f6e021101037261740102703101066c6967617365027061011301056d6f757365010270330106696d6d756e6502706201044e6f7465010b01026e32010566696e616c0270620104585265660212010372617401027031010767656e62616e6b02706100120103726174010270310107756e6970726f7402706200020100"
	if got := hex.EncodeToString(AppendSnapshot(nil, goldenEngineSnapshot(t))); got != want {
		t.Errorf("engine snapshot bytes moved:\n got %s\nwant %s", got, want)
	}
}

// TestSnapshotRefusesV1: a retained version-1 snapshot is refused with an
// error naming commit d723caa, the first release that reads it and, on a
// Snapshot, rewrites it in version 2.
func TestSnapshotRefusesV1(t *testing.T) {
	snap, err := DecodeSnapshot(mustHex(t, goldenV1))
	if !errors.Is(err, errSnapshotV1) || !strings.Contains(fmt.Sprint(err), "d723caa") {
		t.Errorf("DecodeSnapshot(goldenV1) = %v, %v; want errSnapshotV1 naming commit d723caa", snap, err)
	}
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// snapshotOfTwo returns the schema and exported state of an engine holding
// two values of F.
func snapshotOfTwo(t *testing.T) (*core.Schema, *core.EngineSnapshot) {
	t.Helper()
	s := core.MustSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	e := core.NewEngine("q", s, core.TrustAll(1))
	for _, u := range []core.Update{
		core.Insert("F", core.Strs("rat", "p1", "v"), "q"),
		core.Insert("F", core.Strs("mouse", "p2", "w"), "q"),
	} {
		if _, _, err := e.NewLocalTransaction(u); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.ExportSnapshot()
	if n := len(snap.Relations[0].Rows); n != 2 {
		t.Fatalf("exported %d rows, want 2", n)
	}
	return s, snap
}

// TestSnapshotV2Refusals: version 2 cannot say that a value has no
// producer, or two; the codec reads whatever rows it holds, and the engine
// refuses rows out of key order, a repeated key, an unknown relation and a
// repeated one.
func TestSnapshotV2Refusals(t *testing.T) {
	s, snap := snapshotOfTwo(t)
	rows := snap.Relations[0].Rows
	for name, rels := range map[string][]core.RelationSnapshot{
		"rows out of key order": {{Name: "F", Rows: []core.RowSnapshot{rows[1], rows[0]}}},
		"repeated key": {{Name: "F", Rows: []core.RowSnapshot{
			rows[0], {Tuple: core.Strs("rat", "p1", "other"), By: rows[1].By}, rows[1],
		}}},
		"unknown relation":  {{Name: "F", Rows: rows}, {Name: "G", Rows: rows[:1]}},
		"repeated relation": {{Name: "F", Rows: rows[:1]}, {Name: "F", Rows: rows[1:]}},
	} {
		bad := *snap
		bad.Relations = rels
		got, err := DecodeSnapshot(AppendSnapshot(nil, &Snapshot{Peers: []PeerSnapshot{{Engine: bad}}}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := core.NewEngineFromSnapshot(s, core.TrustAll(1), &got.Peers[0].Engine); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := core.NewEngineFromSnapshot(s, core.TrustAll(1), snap); err != nil {
		t.Errorf("the snapshot itself: %v", err)
	}
}
