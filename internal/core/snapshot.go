package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"orchestra/internal/spread"
)

// EngineSnapshot is the serializable image of a participant's durable engine
// state: the materialized instance, the applied/rejected decision sets, the
// provenance of every value the instance holds, and the local transaction
// sequence. It captures exactly the state core.Restore reconstructs from the
// update store's log — reconciliation soft state (deferred candidates, dirty
// values, conflict groups) is deliberately absent, because the store never
// records it and the next reconciliation rebuilds it (see docs/RECOVERY.md).
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
	// Producers is the provenance: for each tuple value the relations hold,
	// the transaction that produced it. Sorted by relation name, then tuple
	// encoding.
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
	snap.Producers = slices.Grow(snap.Producers, e.inst.TotalLen())
	type encoded struct {
		enc string
		p   ProducerSnapshot
	}
	var prods []encoded // one relation's producers, sorted by tuple encoding
	names := e.schema.Names()
	sort.Strings(names)
	for _, name := range names {
		m := e.inst.rels[name]
		if m.Len() == 0 {
			continue
		}
		snap.Relations = append(snap.Relations, RelationSnapshot{
			Name:   name,
			Tuples: e.inst.Tuples(name),
		})
		prods = prods[:0]
		for _, r := range m.All() {
			prods = append(prods, encoded{enc: r.t.Encode(), p: ProducerSnapshot{Rel: name, Tuple: r.t, Txn: r.by}})
		}
		sort.Slice(prods, func(i, j int) bool { return prods[i].enc < prods[j].enc })
		for _, pr := range prods {
			snap.Producers = append(snap.Producers, pr.p)
		}
	}
	return snap
}

// NewEngineFromSnapshot builds an engine whose durable state is restored
// from the snapshot: instance, applied/rejected sets, provenance, and local
// sequence come back exactly as exported. The caller supplies the trust
// policy (policies are not part of the snapshot, mirroring RebuildPeer's
// signature). Use Engine.RestoreTail afterwards to replay the update-store
// log suffix the snapshot does not cover.
//
// Every value the snapshot's relations hold must have exactly one
// producer, and every producer must name such a value; the relations must
// be in canonical order. A snapshot that breaks any of this is refused.
func NewEngineFromSnapshot(schema *Schema, trust Trust, snap *EngineSnapshot) (*Engine, error) {
	e := NewEngine(snap.Peer, schema, trust)
	e.nextSeq = snap.NextSeq
	for _, id := range snap.Applied {
		e.applied.Add(id)
	}
	for _, id := range snap.Rejected {
		e.rejected.Add(id)
	}
	// A key holds one value, so the rows come from the producers; the
	// relations must then list exactly the values the rows hold.
	for _, p := range snap.Producers {
		rel, ok := schema.Relation(p.Rel)
		if !ok {
			return nil, fmt.Errorf("core: snapshot producer relation %s not in schema", p.Rel)
		}
		if err := rel.Validate(p.Tuple); err != nil {
			return nil, fmt.Errorf("core: snapshot producer for %s: %w", p.Rel, err)
		}
		keyEnc := rel.KeyEnc(p.Tuple)
		if cur, held := e.inst.lookupEnc(p.Rel, keyEnc); held {
			return nil, fmt.Errorf("core: snapshot has two producers for the key of %s%v", p.Rel, cur)
		}
		e.inst.put(rel, p.Tuple, keyEnc, p.Txn)
	}
	held := 0
	var key, prev []byte
	for i, rs := range snap.Relations {
		rel, ok := schema.Relation(rs.Name)
		if !ok {
			return nil, fmt.Errorf("core: snapshot relation %s not in schema", rs.Name)
		}
		if i > 0 && rs.Name <= snap.Relations[i-1].Name {
			return nil, fmt.Errorf("core: snapshot relation %s out of order or repeated", rs.Name)
		}
		for j, t := range rs.Tuples {
			if err := rel.Validate(t); err != nil {
				return nil, fmt.Errorf("core: snapshot tuple for %s: %w", rs.Name, err)
			}
			key = rel.appendKeyEnc(key[:0], t)
			if j > 0 && bytes.Compare(key, prev) <= 0 {
				return nil, fmt.Errorf("core: snapshot tuple %s%v out of key order or repeated", rs.Name, t)
			}
			if r, ok := spread.GetBytes(e.inst.rels[rs.Name], key); !ok || !r.t.Equal(t) {
				return nil, fmt.Errorf("core: snapshot value %s%v has no producer", rs.Name, t)
			}
			key, prev = prev, key
		}
		held += len(rs.Tuples)
	}
	if held != len(snap.Producers) {
		return nil, fmt.Errorf("core: snapshot has %d producers for the %d values its relations hold", len(snap.Producers), held)
	}
	return e, nil
}
