package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"orchestra/internal/codec"
	"orchestra/internal/core"
)

// snapshotVersion tags the binary encoding of store snapshots. Same policy
// as the publish-payload codec: hand-rolled, length-prefixed, version byte
// first, and a byte this release does not read is an explicit error, never
// a silent misparse. Version 2 writes each held value once, with its
// producer. Version 1 listed the values, then the producers; DecodeSnapshot
// refuses it (errSnapshotV1).
const snapshotVersion = 2

// errSnapshotV1 refuses a version-1 snapshot, as the retained snapshot row
// of a central store written before version 2 holds one. The releases from
// commit d723caa through 9523137 read version 1, and a Snapshot (POST
// /v1/snapshot) there rewrites the retained row in version 2.
var errSnapshotV1 = errors.New("store: snapshot in version 1, which this release no longer reads; open the store once with a release from commit d723caa through 9523137 (the last) and take a snapshot (Snapshot, or POST /v1/snapshot), which rewrites it in version 2")

// AppendSnapshot encodes a store snapshot into a compact binary payload,
// appending to dst. Layout: version byte; snapshot epoch; the per-peer
// entries (frontier, recno, decision high-water, engine state with sorted
// decision sets and relations of (tuple, producer) rows); then the residue
// as one nested publish payload (AppendPublishedTxns).
func AppendSnapshot(dst []byte, snap *Snapshot) []byte {
	dst = append(dst, snapshotVersion)
	dst = binary.AppendUvarint(dst, uint64(snap.Epoch))
	dst = binary.AppendUvarint(dst, uint64(len(snap.Peers)))
	for i := range snap.Peers {
		ps := &snap.Peers[i]
		dst = binary.AppendUvarint(dst, uint64(ps.LastEpoch))
		dst = binary.AppendUvarint(dst, uint64(ps.Recno))
		dst = binary.AppendUvarint(dst, uint64(ps.DecisionSeq))
		eng := &ps.Engine
		dst = codec.AppendStr(dst, string(eng.Peer))
		dst = binary.AppendUvarint(dst, eng.NextSeq)
		dst = appendIDs(dst, eng.Applied)
		dst = appendIDs(dst, eng.Rejected)
		dst = binary.AppendUvarint(dst, uint64(len(eng.Relations)))
		for _, rs := range eng.Relations {
			dst = codec.AppendStr(dst, rs.Name)
			dst = binary.AppendUvarint(dst, uint64(len(rs.Rows)))
			for _, row := range rs.Rows {
				dst = codec.AppendStr(dst, row.Tuple.Encode())
				dst = codec.AppendStr(dst, string(row.By.Origin))
				dst = binary.AppendUvarint(dst, row.By.Seq)
			}
		}
	}
	residue := AppendPublishedTxns(nil, snap.Residue)
	dst = binary.AppendUvarint(dst, uint64(len(residue)))
	return append(dst, residue...)
}

// DecodeSnapshot decodes a payload produced by AppendSnapshot.
func DecodeSnapshot(payload []byte) (*Snapshot, error) {
	r := codec.NewReader(payload)
	if v := r.Byte(); r.Err() == nil && v != snapshotVersion {
		if v == 1 {
			return nil, errSnapshotV1
		}
		return nil, fmt.Errorf("store: snapshot version %d, want %d", v, snapshotVersion)
	}
	snap := &Snapshot{Epoch: core.Epoch(r.Uvarint())}
	np := r.Count()
	snap.Peers = make([]PeerSnapshot, 0, np)
	for i := 0; i < np && r.Err() == nil; i++ {
		ps := PeerSnapshot{
			LastEpoch:   core.Epoch(r.Uvarint()),
			Recno:       int(r.Uvarint()),
			DecisionSeq: int64(r.Uvarint()),
		}
		eng := &ps.Engine
		eng.Peer = core.PeerID(r.Str())
		eng.NextSeq = r.Uvarint()
		eng.Applied = readIDs(&r)
		eng.Rejected = readIDs(&r)
		eng.Relations = readRelations(&r)
		snap.Peers = append(snap.Peers, ps)
	}
	// The residue aliases payload, which is safe: DecodePublishedTxns
	// copies every string it keeps.
	blob := r.Bytes()
	if err := r.End(); err != nil {
		return nil, err
	}
	residue, err := DecodePublishedTxns(blob)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot residue: %w", err)
	}
	snap.Residue = residue
	return snap, nil
}

// readRelations reads the relations of one engine state: each row its
// tuple, then its producer.
func readRelations(r *codec.Reader) []core.RelationSnapshot {
	nr := r.Count()
	if nr == 0 {
		return nil
	}
	rels := make([]core.RelationSnapshot, 0, nr)
	for j := 0; j < nr && r.Err() == nil; j++ {
		rs := core.RelationSnapshot{Name: r.Str()}
		if n := r.Count(); n > 0 {
			rs.Rows = make([]core.RowSnapshot, 0, n)
			for k := 0; k < n && r.Err() == nil; k++ {
				t := readTuple(r)
				rs.Rows = append(rs.Rows, core.RowSnapshot{Tuple: t, By: readID(r)})
			}
		}
		rels = append(rels, rs)
	}
	return rels
}
