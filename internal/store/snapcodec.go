package store

import (
	"encoding/binary"
	"fmt"

	"orchestra/internal/codec"
	"orchestra/internal/core"
)

// snapshotVersion tags the binary encoding of store snapshots. Same policy
// as the publish-payload codec: hand-rolled, length-prefixed, version byte
// first, and no migration across versions — a mismatched byte is an
// explicit error, never a silent misparse.
const snapshotVersion = 1

// AppendSnapshot encodes a store snapshot into a compact binary payload,
// appending to dst. Layout: version byte; snapshot epoch; the per-peer
// entries (frontier, recno, decision high-water, engine state with sorted
// decision sets, relations, and producers); then the residue as one nested
// publish payload (AppendPublishedTxns).
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
			dst = binary.AppendUvarint(dst, uint64(len(rs.Tuples)))
			for _, t := range rs.Tuples {
				dst = codec.AppendStr(dst, t.Encode())
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(eng.Producers)))
		for _, p := range eng.Producers {
			dst = codec.AppendStr(dst, p.Rel)
			dst = codec.AppendStr(dst, p.Tuple.Encode())
			dst = codec.AppendStr(dst, string(p.Txn.Origin))
			dst = binary.AppendUvarint(dst, p.Txn.Seq)
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
		return nil, fmt.Errorf("store: snapshot version %d, want %d (no migration path across snapshot codec versions)", v, snapshotVersion)
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
		if nr := r.Count(); nr > 0 {
			eng.Relations = make([]core.RelationSnapshot, 0, nr)
			for j := 0; j < nr && r.Err() == nil; j++ {
				rs := core.RelationSnapshot{Name: r.Str()}
				if nt := r.Count(); nt > 0 {
					rs.Tuples = make([]core.Tuple, 0, nt)
					for k := 0; k < nt && r.Err() == nil; k++ {
						rs.Tuples = append(rs.Tuples, readTuple(&r))
					}
				}
				eng.Relations = append(eng.Relations, rs)
			}
		}
		if npr := r.Count(); npr > 0 {
			eng.Producers = make([]core.ProducerSnapshot, 0, npr)
			for j := 0; j < npr && r.Err() == nil; j++ {
				p := core.ProducerSnapshot{Rel: r.Str(), Tuple: readTuple(&r)}
				p.Txn.Origin = core.PeerID(r.Str())
				p.Txn.Seq = r.Uvarint()
				eng.Producers = append(eng.Producers, p)
			}
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
