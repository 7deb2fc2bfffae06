package store

import (
	"encoding/hex"
	"testing"

	"orchestra/internal/core"
)

func sampleBatch() []PublishedTxn {
	t1 := core.NewTransaction(core.TxnID{Origin: "alice", Seq: 7},
		core.Insert("F", core.Strs("rat", "p1", "fn"), "alice"),
		core.Modify("F", core.Strs("rat", "p1", "fn"), core.Strs("rat", "p1", "fn2"), "alice"))
	t1.Epoch = 12
	t1.Order = 12<<20 + 3
	t2 := core.NewTransaction(core.TxnID{Origin: "bob", Seq: 0},
		core.Delete("F", core.Strs("mouse", "p2", "x"), "bob"))
	t2.Epoch = 12
	t2.Order = 12<<20 + 4
	return []PublishedTxn{
		{Txn: t1, Antecedents: []core.TxnID{{Origin: "carol", Seq: 3}, {Origin: "bob", Seq: 1}}},
		{Txn: t2},
	}
}

// TestPayloadCodecRoundTrip: the hand-rolled publish-payload codec must
// reproduce every field gob used to carry — IDs, epochs, orders, all three
// update ops (including Modify's New tuple), and antecedent lists.
func TestPayloadCodecRoundTrip(t *testing.T) {
	in := sampleBatch()
	payload := AppendPublishedTxns(nil, in)
	out, err := DecodePublishedTxns(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d txns, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i].Txn, out[i].Txn
		if a.ID != b.ID || a.Epoch != b.Epoch || a.Order != b.Order {
			t.Errorf("txn %d header: got %v/%d/%d want %v/%d/%d", i, b.ID, b.Epoch, b.Order, a.ID, a.Epoch, a.Order)
		}
		if len(a.Updates) != len(b.Updates) {
			t.Fatalf("txn %d: %d updates, want %d", i, len(b.Updates), len(a.Updates))
		}
		for j := range a.Updates {
			ua, ub := a.Updates[j], b.Updates[j]
			if ua.Op != ub.Op || ua.Rel != ub.Rel || ua.Origin != ub.Origin {
				t.Errorf("txn %d update %d: %+v != %+v", i, j, ub, ua)
			}
			if ua.Tuple.Encode() != ub.Tuple.Encode() {
				t.Errorf("txn %d update %d tuple mismatch", i, j)
			}
			if (ua.New == nil) != (ub.New == nil) {
				t.Errorf("txn %d update %d New presence mismatch", i, j)
			} else if ua.New != nil && ua.New.Encode() != ub.New.Encode() {
				t.Errorf("txn %d update %d New mismatch", i, j)
			}
		}
		if len(in[i].Antecedents) != len(out[i].Antecedents) {
			t.Fatalf("txn %d: %d antecedents, want %d", i, len(out[i].Antecedents), len(in[i].Antecedents))
		}
		for j, id := range in[i].Antecedents {
			if out[i].Antecedents[j] != id {
				t.Errorf("txn %d antecedent %d: %v != %v", i, j, out[i].Antecedents[j], id)
			}
		}
	}
}

// TestPayloadCodecErrors: truncations and foreign version bytes must fail
// loudly, never decode garbage.
func TestPayloadCodecErrors(t *testing.T) {
	payload := AppendPublishedTxns(nil, sampleBatch())
	if _, err := DecodePublishedTxns(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := DecodePublishedTxns([]byte{99, 1}); err == nil {
		t.Error("unknown version accepted")
	}
	for _, cut := range []int{1, 2, len(payload) / 2, len(payload) - 1} {
		if _, err := DecodePublishedTxns(payload[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestPublishedTxnsGolden pins the publish payload byte for byte: it is what
// txns_k rows hold on disk, so the transaction writer it shares with the
// wire-only codecs must never move a byte of it.
func TestPublishedTxnsGolden(t *testing.T) {
	const want = "010205616c696365070c838080060201014605616c6963650d0103726174010270310102666e0003014605616c6963650d0103726174010270310102666e010e0103726174010270310103666e3202056361726f6c0303626f620103626f62000c848080060102014603626f620e01056d6f757365010270320101780000"
	if got := hex.EncodeToString(AppendPublishedTxns(nil, sampleBatch())); got != want {
		t.Errorf("publish payload moved:\n got %s\nwant %s", got, want)
	}
}
