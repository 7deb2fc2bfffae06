package core

import (
	"fmt"
	"sort"
)

// EngineSnapshot is the serializable image of a participant's durable engine
// state: the materialized instance, the applied/rejected decision sets, the
// value-provenance map, and the local transaction sequence. It captures
// exactly the state core.Restore reconstructs from the update store's log —
// reconciliation soft state (deferred candidates, dirty values, conflict
// groups) is deliberately absent, because the store never records it and the
// next reconciliation rebuilds it (see docs/RECOVERY.md).
//
// A snapshot is canonical: relations, tuples, decision sets, and producers
// are sorted, so the same engine state always exports the same snapshot.
type EngineSnapshot struct {
	Peer    PeerID
	NextSeq uint64
	// Applied and Rejected are the decided transaction sets, sorted by ID.
	Applied  []TxnID
	Rejected []TxnID
	// Relations holds the instance contents, sorted by relation name;
	// relations with no tuples are omitted.
	Relations []RelationSnapshot
	// Producers is the provenance map: for each tuple value, the transaction
	// that produced it. Sorted by relation name, then tuple encoding.
	Producers []ProducerSnapshot
}

// RelationSnapshot is one relation's tuples, sorted by key encoding.
type RelationSnapshot struct {
	Name   string
	Tuples []Tuple
}

// ProducerSnapshot records that Txn produced the value Tuple in relation Rel.
type ProducerSnapshot struct {
	Rel   string
	Tuple Tuple
	Txn   TxnID
}

// ExportSnapshot captures the engine's durable state as a canonical
// EngineSnapshot. The engine is not modified; the exported tuples are shared
// (tuples are immutable by convention).
func (e *Engine) ExportSnapshot() *EngineSnapshot {
	snap := &EngineSnapshot{
		Peer:     e.peer,
		NextSeq:  e.nextSeq,
		Applied:  e.applied.Sorted(),
		Rejected: e.rejected.Sorted(),
	}
	names := e.schema.Names()
	sort.Strings(names)
	for _, name := range names {
		if e.inst.Len(name) == 0 {
			continue
		}
		snap.Relations = append(snap.Relations, RelationSnapshot{
			Name:   name,
			Tuples: e.inst.Tuples(name),
		})
	}
	type prodKey struct{ rel, enc string }
	keys := make([]prodKey, 0, len(e.producers))
	for k := range e.producers {
		keys = append(keys, prodKey{rel: k.rel, enc: k.enc})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rel != keys[j].rel {
			return keys[i].rel < keys[j].rel
		}
		return keys[i].enc < keys[j].enc
	})
	for _, k := range keys {
		t, err := DecodeTuple(k.enc)
		if err != nil {
			continue // producers only ever hold canonical encodings
		}
		snap.Producers = append(snap.Producers, ProducerSnapshot{
			Rel:   k.rel,
			Tuple: t,
			Txn:   e.producers[tupleKey{rel: k.rel, enc: k.enc}],
		})
	}
	return snap
}

// NewEngineFromSnapshot builds an engine whose durable state is restored
// from the snapshot: instance, applied/rejected sets, provenance, and local
// sequence come back exactly as exported. The caller supplies the trust
// policy (policies are not part of the snapshot, mirroring RebuildPeer's
// signature). Use Engine.RestoreTail afterwards to replay the update-store
// log suffix the snapshot does not cover.
func NewEngineFromSnapshot(schema *Schema, trust Trust, snap *EngineSnapshot) (*Engine, error) {
	e := NewEngine(snap.Peer, schema, trust)
	e.nextSeq = snap.NextSeq
	for _, id := range snap.Applied {
		e.applied.Add(id)
	}
	for _, id := range snap.Rejected {
		e.rejected.Add(id)
	}
	for _, rs := range snap.Relations {
		rel, ok := schema.Relation(rs.Name)
		if !ok {
			return nil, fmt.Errorf("core: snapshot relation %s not in schema", rs.Name)
		}
		for _, t := range rs.Tuples {
			if err := rel.Validate(t); err != nil {
				return nil, fmt.Errorf("core: snapshot tuple for %s: %w", rs.Name, err)
			}
			e.inst.put(rel, t, rel.KeyEnc(t))
		}
	}
	for _, p := range snap.Producers {
		if _, ok := schema.Relation(p.Rel); !ok {
			return nil, fmt.Errorf("core: snapshot producer relation %s not in schema", p.Rel)
		}
		e.producers[mkTupleKey(p.Rel, p.Tuple)] = p.Txn
	}
	return e, nil
}
