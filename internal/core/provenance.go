package core

// Provenance tracking: each engine remembers, for every tuple value in its
// instance, the transaction that produced it. A key holds one value at a
// time, so the producer lives in the instance row beside the value (row.by).
// When the peer publishes a transaction, the producers of the values it
// consumes are its antecedent set (Definition 3) — computed locally by the
// publisher, which is how the distributed store's transaction controllers
// learn antecedents without any global state (§5.2.2).

// noteProducers attributes the values the instance holds once it has
// applied the footprint of xs (one by one or flattened): it walks the raw
// updates of xs in order and gives every produced value its row still holds
// to the transaction that produced it, so each held value ends with the
// last transaction of xs that produces it. A value xs consumed and did not
// produce again has no row left, or a row holding another value, so it
// needs no step of its own. Replaying a log in one list (restoreLog)
// attributes as one list per reconciliation does: a later list that
// produces a value again overrides, one that leaves it alone keeps it.
func (e *Engine) noteProducers(xs []*Transaction) {
	for _, x := range xs {
		for i := range x.Updates {
			u := &x.Updates[i]
			t := u.Produces()
			if t == nil {
				continue
			}
			keyEnc := u.producedKeyEnc(e.schema.MustRelation(u.Rel))
			if _, held := e.producer(u.Rel, keyEnc, t); held {
				e.inst.rels[u.Rel].Set(keyEnc, row{t: t, by: x.ID})
			}
		}
	}
}

// producer returns the transaction that produced the value t of a schema
// relation whose key encodes to keyEnc, if the instance holds t.
func (e *Engine) producer(rel, keyEnc string, t Tuple) (TxnID, bool) {
	r, ok := e.inst.rels[rel].Get(keyEnc)
	if !ok || !r.t.Equal(t) {
		return TxnID{}, false
	}
	return r.by, true
}

// antecedentIDs returns the direct antecedents ante(x) of a transaction as
// seen by this peer: for each tuple value x deletes or modifies, the
// transaction that produced that value in the peer's instance. It must be
// called before the transaction itself is applied; NewLocalTransaction
// calls it and returns the result with the transaction.
func (e *Engine) antecedentIDs(x *Transaction) []TxnID {
	var out []TxnID
	seen := map[TxnID]bool{x.ID: true}
	// Values produced earlier within the same transaction chain to the
	// transaction itself, not to an external antecedent.
	local := map[tupleKey]bool{}
	for i := range x.Updates {
		u := &x.Updates[i]
		if t := u.Consumes(); t != nil && !local[u.consumedKey()] {
			rel := e.schema.MustRelation(u.Rel)
			if p, ok := e.producer(u.Rel, u.keyEncTuple(rel), t); ok && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
		if u.Produces() != nil {
			local[u.producedKey()] = true
		}
	}
	return out
}

// ProducerOf returns the transaction that produced the given tuple value in
// this peer's instance, if the instance holds it.
func (e *Engine) ProducerOf(rel string, t Tuple) (TxnID, bool) {
	r, ok := e.schema.Relation(rel)
	if !ok || len(t) != r.Arity() {
		return TxnID{}, false
	}
	return e.producer(rel, r.KeyEnc(t), t)
}
