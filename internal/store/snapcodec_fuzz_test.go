package store

import "testing"

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder — same
// contract as FuzzDecodePublishedTxns: never panic, and anything accepted
// re-encodes to its own bytes. The residue is the snapshot's tail, so the
// one exception reencodes names is matched there.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{snapshotVersion})
	f.Add([]byte{0, 0}) // wrong version
	f.Add(AppendSnapshot(nil, &Snapshot{}))
	f.Add(AppendSnapshot(nil, testSnapshot()))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		if !reencodes(data, publishedUpdates(snap.Residue), func() []byte { return AppendSnapshot(nil, snap) }) {
			t.Fatalf("decode not canonical: %x re-encodes to %x", data, AppendSnapshot(nil, snap))
		}
	})
}
