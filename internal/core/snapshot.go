package core

import (
	"fmt"
	"sort"
)

// EngineSnapshot is the serializable image of a participant's durable engine
// state: the materialized instance with each held value's producer, the
// applied/rejected decisions, and the local transaction sequence. It
// captures exactly the state Engine.RestoreTail reconstructs from the update
// store's log — reconciliation soft state (deferred candidates, dirty
// values, conflict groups) is deliberately absent, because the store never
// records it and the next reconciliation rebuilds it (see docs/RECOVERY.md).
//
// A snapshot is canonical: relations, rows and decision sets are sorted, so
// the same engine state always exports the same snapshot.
type EngineSnapshot struct {
	Peer    PeerID
	NextSeq uint64
	// Applied and Rejected are the decided transaction sets, sorted by ID.
	Applied  []TxnID
	Rejected []TxnID
	// Relations holds the instance contents, sorted by relation name;
	// relations with no rows are omitted.
	Relations []RelationSnapshot
}

// RelationSnapshot is one relation's rows, sorted by key encoding.
type RelationSnapshot struct {
	Name string
	Rows []RowSnapshot
}

// RowSnapshot is one held value and the transaction that produced it.
type RowSnapshot struct {
	Tuple Tuple
	By    TxnID
}

// ExportSnapshot captures the engine's durable state as a canonical
// EngineSnapshot. The engine is not modified; the exported tuples are shared
// (tuples are immutable by convention).
func (e *Engine) ExportSnapshot() *EngineSnapshot {
	snap := &EngineSnapshot{Peer: e.peer, NextSeq: e.nextSeq}
	snap.Applied, snap.Rejected = e.decided.sorted()
	names := e.schema.Names()
	sort.Strings(names)
	for _, name := range names {
		if rows := e.inst.sortedRows(name); len(rows) > 0 {
			snap.Relations = append(snap.Relations, RelationSnapshot{Name: name, Rows: rows})
		}
	}
	return snap
}

// NewEngineFromSnapshot builds an engine whose durable state is restored
// from the snapshot: instance, provenance, decisions and local
// sequence come back exactly as exported. The caller supplies the trust
// policy (policies are not part of the snapshot, mirroring RebuildPeer's
// signature). Use Engine.RestoreTail afterwards to replay the update-store
// log suffix the snapshot does not cover.
//
// A snapshot naming a relation the schema lacks, whose relations or rows
// are out of canonical order or repeated, or that lists an id as both
// applied and rejected, is refused.
func NewEngineFromSnapshot(schema *Schema, trust Trust, snap *EngineSnapshot) (*Engine, error) {
	e := NewEngine(snap.Peer, schema, trust)
	e.nextSeq = snap.NextSeq
	for _, id := range snap.Applied {
		e.decided.decide(id, DecisionAccept)
	}
	for _, id := range snap.Rejected {
		if !e.decided.decide(id, DecisionReject) {
			return nil, fmt.Errorf("core: snapshot decides %s twice: applied and rejected", id)
		}
	}
	for i, rs := range snap.Relations {
		rel, ok := schema.Relation(rs.Name)
		if !ok {
			return nil, fmt.Errorf("core: snapshot relation %s not in schema", rs.Name)
		}
		if i > 0 && rs.Name <= snap.Relations[i-1].Name {
			return nil, fmt.Errorf("core: snapshot relation %s out of order or repeated", rs.Name)
		}
		prev := ""
		for j, r := range rs.Rows {
			if err := rel.Validate(r.Tuple); err != nil {
				return nil, fmt.Errorf("core: snapshot row of %s: %w", rs.Name, err)
			}
			key := rel.KeyEnc(r.Tuple)
			if j > 0 && key <= prev {
				return nil, fmt.Errorf("core: snapshot row %s%v out of key order or repeated", rs.Name, r.Tuple)
			}
			e.inst.put(rel, r.Tuple, key, r.By)
			prev = key
		}
	}
	return e, nil
}
