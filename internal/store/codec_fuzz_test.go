package store

import (
	"bytes"
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

// reencodes reports whether encode, which re-encodes what data decoded to,
// gives back data byte for byte. us are the decoded value's updates in
// encoding order. It names the one input with a second encoding: an update
// whose New is present but empty decodes to a nil New, as gob delivered it,
// and a nil New encodes as absent. The writer writes the present form for
// a New of core.Tuple{}, so the reader cannot refuse it; reencodes gives
// each nil New back its empty tuple, last to first, where that makes more
// of data's tail match.
func reencodes(data []byte, us []*core.Update, encode func() []byte) bool {
	tail := func() int {
		a, n := encode(), 0
		for n < len(a) && n < len(data) && a[len(a)-1-n] == data[len(data)-1-n] {
			n++
		}
		return n
	}
	for i := len(us) - 1; i >= 0; i-- {
		if u := us[i]; u.New == nil {
			before := tail()
			if u.New = (core.Tuple{}); tail() <= before {
				u.New = nil
			}
		}
	}
	return bytes.Equal(encode(), data)
}

// updatesOf lists the updates of txns in encoding order.
func updatesOf(txns ...*core.Transaction) []*core.Update {
	var us []*core.Update
	for _, x := range txns {
		for j := range x.Updates {
			us = append(us, &x.Updates[j])
		}
	}
	return us
}

func publishedUpdates(batch []PublishedTxn) []*core.Update {
	var txns []*core.Transaction
	for _, p := range batch {
		txns = append(txns, p.Txn)
	}
	return updatesOf(txns...)
}

// FuzzDecodePublishedTxns feeds arbitrary bytes — including random
// mutations of valid payloads, via the seed corpus — to the publish-batch
// decoder. The decoder must never panic and never "silently decode":
// anything it accepts must be canonical, re-encoding to exactly the bytes
// it was decoded from (see reencodes for the one exception). A corrupt
// payload that happens to parse is indistinguishable from a valid one by
// construction; byte-exact re-encoding is the strongest property a
// length-prefixed format can promise.
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
		if !reencodes(data, publishedUpdates(txns), func() []byte { return AppendPublishedTxns(nil, txns) }) {
			t.Fatalf("decode not canonical: %x re-encodes to %x", data, AppendPublishedTxns(nil, txns))
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

// reconciliationUpdates lists rec's updates in encoding order, each
// distinct transaction's once: a transaction the body references again
// decoded to the pointer it introduced.
func reconciliationUpdates(rec *Reconciliation) []*core.Update {
	return updatesOf(reconciliationTxns(rec)...)
}

// reconciliationTxns lists rec's distinct transactions in the order the
// body introduces them.
func reconciliationTxns(rec *Reconciliation) []*core.Transaction {
	var txns []*core.Transaction
	seen := make(map[*core.Transaction]bool)
	add := func(x *core.Transaction) {
		if !seen[x] {
			seen[x] = true
			txns = append(txns, x)
		}
	}
	for _, c := range rec.Candidates {
		if c.Txn != nil {
			add(c.Txn)
		}
		for _, x := range c.Ext {
			add(x)
		}
	}
	return txns
}

// FuzzDecodeReconciliation holds DecodeReconciliation to the contract of
// FuzzDecodePublishedTxns: never panic, and anything accepted re-encodes to
// its own bytes.
func FuzzDecodeReconciliation(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendReconciliation(nil, &Reconciliation{}))
	f.Add(AppendReconciliation(nil, fuzzSeedReconciliation()))
	f.Add(AppendReconciliation(nil, sharedAntecedentReconciliation()))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeReconciliation(data)
		if err != nil {
			return
		}
		if !reencodes(data, reconciliationUpdates(rec), func() []byte { return AppendReconciliation(nil, rec) }) {
			t.Fatalf("decode not canonical: %x re-encodes to %x", data, AppendReconciliation(nil, rec))
		}
	})
}
