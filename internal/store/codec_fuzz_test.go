package store

import (
	"reflect"
	"testing"

	"orchestra/internal/core"
)

// fuzzSeedBatch is a representative published batch: multi-update
// transactions, every op kind, modify with a replacement tuple, and an
// antecedent list — so mutation-based fuzzing starts from payloads that
// exercise every branch of the decoder.
func fuzzSeedBatch() []PublishedTxn {
	x1 := core.NewTransaction(core.TxnID{Origin: "pa", Seq: 1},
		core.Insert("F", core.Strs("rat", "prot1", "cell-metab"), "pa"))
	x2 := core.NewTransaction(core.TxnID{Origin: "pb", Seq: 7},
		core.Modify("F", core.Strs("rat", "prot1", "cell-metab"), core.Strs("rat", "prot1", "immune"), "pb"),
		core.Delete("F", core.Strs("mouse", "prot2", "x"), "pb"))
	x2.Epoch, x2.Order = 3, 3<<20|1
	return []PublishedTxn{
		{Txn: x1},
		{Txn: x2, Antecedents: []core.TxnID{{Origin: "pa", Seq: 1}, {Origin: "pz", Seq: 0}}},
	}
}

// FuzzDecodePublishedTxns feeds arbitrary bytes — including random
// mutations of valid payloads, via the seed corpus — to the publish-batch
// decoder. The decoder must never panic and never "silently decode":
// anything it accepts must be a canonical batch, i.e. re-encoding the
// decoded value and decoding again reproduces it exactly. (A corrupt
// payload that happens to parse is indistinguishable from a valid one by
// construction; the canonical round-trip is the strongest property a
// length-prefixed format can promise.)
func FuzzDecodePublishedTxns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0}) // valid empty batch
	f.Add([]byte{0, 0}) // wrong version
	f.Add(AppendPublishedTxns(nil, nil))
	f.Add(AppendPublishedTxns(nil, fuzzSeedBatch()))
	f.Fuzz(func(t *testing.T, data []byte) {
		txns, err := DecodePublishedTxns(data)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		re := AppendPublishedTxns(nil, txns)
		again, err := DecodePublishedTxns(re)
		if err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v\ninput: %x", err, data)
		}
		if !reflect.DeepEqual(txns, again) {
			t.Fatalf("decode not canonical:\nfirst:  %#v\nsecond: %#v\ninput: %x", txns, again, data)
		}
	})
}

// fuzzSeedReconciliation is a window over fuzzSeedBatch: a candidate with
// its extension chain and one without a transaction at all.
func fuzzSeedReconciliation() *Reconciliation {
	b := fuzzSeedBatch()
	return &Reconciliation{Recno: 4, FromEpoch: 2, ToEpoch: 3, Candidates: []*core.Candidate{
		{Txn: b[1].Txn, Priority: 2, Ext: []*core.Transaction{b[0].Txn, b[1].Txn}},
		{Priority: -1},
	}}
}

// FuzzDecodeReconciliation holds DecodeReconciliation to the contract of
// FuzzDecodePublishedTxns: never panic, and anything accepted re-encodes to
// a payload that decodes to the same value.
func FuzzDecodeReconciliation(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendReconciliation(nil, &Reconciliation{}))
	f.Add(AppendReconciliation(nil, fuzzSeedReconciliation()))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeReconciliation(data)
		if err != nil {
			return
		}
		again, err := DecodeReconciliation(AppendReconciliation(nil, rec))
		if err != nil {
			t.Fatalf("re-encoded reconciliation failed to decode: %v\ninput: %x", err, data)
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("decode not canonical:\nfirst:  %#v\nsecond: %#v\ninput: %x", rec, again, data)
		}
	})
}
