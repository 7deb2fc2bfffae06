package store

import (
	"encoding/binary"
	"fmt"

	"orchestra/internal/codec"
	"orchestra/internal/core"
)

// snapshotVersion tags the binary encoding of store snapshots. Same policy
// as the publish-payload codec: hand-rolled, length-prefixed, version byte
// first, and a byte this release does not read is an explicit error, never
// a silent misparse. Version 2 writes each held value once, with its
// producer; DecodeSnapshot still reads version 1 (values, then producers),
// which retained snapshots of earlier releases are in.
const snapshotVersion = 2

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

// DecodeSnapshot decodes a payload produced by AppendSnapshot, of this
// version or of version 1.
func DecodeSnapshot(payload []byte) (*Snapshot, error) {
	r := codec.NewReader(payload)
	v := r.Byte()
	if r.Err() == nil && v != snapshotVersion && v != 1 {
		return nil, fmt.Errorf("store: snapshot version %d, want %d (or 1, which is read but not written)", v, snapshotVersion)
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
		if v == 1 {
			eng.Relations = readRelationsV1(&r)
		} else {
			eng.Relations = readRelations(&r, func() core.RowSnapshot {
				t := readTuple(&r)
				return core.RowSnapshot{Tuple: t, By: readID(&r)}
			})
		}
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

// readRelations reads the relations of one engine state, each row as
// readRow reads it.
func readRelations(r *codec.Reader, readRow func() core.RowSnapshot) []core.RelationSnapshot {
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
				rs.Rows = append(rs.Rows, readRow())
			}
		}
		rels = append(rels, rs)
	}
	return rels
}

// readRelationsV1 reads a version-1 engine state's relations and producers.
// Version 1 lists every held value twice: in its relation, then with its
// relation's name and producer. The reader pairs the two by tuple encoding
// and fails r unless they match one to one.
func readRelationsV1(r *codec.Reader) []core.RelationSnapshot {
	rels := readRelations(r, func() core.RowSnapshot { return core.RowSnapshot{Tuple: readTuple(r)} })
	type value struct{ rel, enc string }
	unpaired := map[value]*core.RowSnapshot{}
	for i := range rels {
		for j := range rels[i].Rows {
			row := &rels[i].Rows[j]
			v := value{rels[i].Name, row.Tuple.Encode()}
			if unpaired[v] != nil {
				r.Fail(fmt.Errorf("store: snapshot value %s%v listed twice", v.rel, row.Tuple))
			}
			unpaired[v] = row
		}
	}
	for j, n := 0, r.Count(); j < n && r.Err() == nil; j++ {
		v := value{rel: r.Str(), enc: r.Str()}
		by := readID(r)
		if row := unpaired[v]; row != nil {
			row.By = by
			delete(unpaired, v)
		} else {
			r.Fail(fmt.Errorf("store: snapshot producer %s names a value of %s that is not held or has a producer already", by, v.rel))
		}
	}
	if len(unpaired) > 0 {
		r.Fail(fmt.Errorf("store: snapshot holds %d values with no producer", len(unpaired)))
	}
	return rels
}
