package store

import (
	"reflect"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder — same
// contract as FuzzDecodePublishedTxns: never panic, and anything accepted
// re-encodes to its own bytes. The residue is the snapshot's tail, so the
// one exception reencodes names is matched there. Version 1 is read but
// not written: an accepted version-1 input re-encodes to version-2 bytes
// that decode to the same peers and re-encode to themselves.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{snapshotVersion})
	f.Add([]byte{0, 0}) // wrong version
	f.Add(AppendSnapshot(nil, &Snapshot{}))
	f.Add(AppendSnapshot(nil, testSnapshot()))
	f.Add(AppendSnapshot(nil, goldenEngineSnapshot(f)))
	f.Add(mustHex(f, goldenV1))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		if data[0] == 1 {
			v2 := AppendSnapshot(nil, snap)
			back, err := DecodeSnapshot(v2)
			if err != nil || !reflect.DeepEqual(back.Peers, snap.Peers) {
				t.Fatalf("version 1 %x re-encodes to %x, which decodes to %+v, %v; want %+v", data, v2, back, err, snap.Peers)
			}
			data, snap = v2, back
		}
		if !reencodes(data, publishedUpdates(snap.Residue), func() []byte { return AppendSnapshot(nil, snap) }) {
			t.Fatalf("decode not canonical: %x re-encodes to %x", data, AppendSnapshot(nil, snap))
		}
	})
}
