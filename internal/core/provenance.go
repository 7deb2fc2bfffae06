package core

// Provenance tracking: each engine remembers, for every tuple value in its
// instance, the transaction that produced it. When the peer publishes a
// transaction, the producers of the values it consumes are its antecedent
// set (Definition 3) — computed locally by the publisher, which is how the
// distributed store's transaction controllers learn antecedents without any
// global state (§5.2.2).

// noteProducers walks the raw update footprint of the given transactions
// (in application order) and updates the engine's producer map: consumed
// values lose their producer entry, produced values gain one attributed to
// the transaction that wrote them. It is exact when the instance applied
// those updates one by one; after a flattened footprint, settleProducers
// follows it.
func (e *Engine) noteProducers(xs []*Transaction) {
	for _, x := range xs {
		for _, u := range x.Updates {
			if u.Consumes() != nil {
				e.producers.Delete(u.consumedKey())
			}
			if u.Produces() != nil {
				e.producers.Set(u.producedKey(), x.ID)
			}
		}
	}
}

// settleProducers makes the producer map agree with the instance on every
// value the raw footprint of xs touches, once the instance has applied the
// flattened footprint. Flattening skips steps the raw walk records: an
// insert of a value the instance already holds, deleted later in xs,
// vanishes and leaves the value in place; a chain back to its source
// changes nothing even where the instance does not hold the source. A
// touched value the instance holds gets, if the walk left it none, the
// last transaction of xs that produces it; an entry for a value the
// instance does not hold goes. Both rules compose over consecutive lists,
// so replaying a log in one list (restoreLog) settles where one list per
// reconciliation does.
func (e *Engine) settleProducers(xs []*Transaction) {
	for _, x := range xs {
		for i := range x.Updates {
			u := &x.Updates[i]
			rel, ok := e.schema.Relation(u.Rel)
			if !ok {
				continue
			}
			if t := u.Consumes(); t != nil {
				e.settleProducer(xs, u.consumedKey(), t, u.keyEncTuple(rel))
			}
			if t := u.Produces(); t != nil {
				e.settleProducer(xs, u.producedKey(), t, u.producedKeyEnc(rel))
			}
		}
	}
}

// settleProducer settles the producer entry k of the value t, whose key
// encoding is keyEnc (see settleProducers).
func (e *Engine) settleProducer(xs []*Transaction, k tupleKey, t Tuple, keyEnc string) {
	cur, held := e.inst.lookupEnc(k.rel, keyEnc)
	held = held && cur.Equal(t)
	_, noted := e.producers.Get(k)
	switch {
	case held && !noted:
		if id, ok := lastProducer(xs, k); ok {
			e.producers.Set(k, id)
		}
	case !held && noted:
		e.producers.Delete(k)
	}
}

// lastProducer returns the last transaction of xs whose raw updates produce
// the value k.
func lastProducer(xs []*Transaction, k tupleKey) (TxnID, bool) {
	for i := len(xs) - 1; i >= 0; i-- {
		for j := range xs[i].Updates {
			if u := &xs[i].Updates[j]; u.Produces() != nil && u.producedKey() == k {
				return xs[i].ID, true
			}
		}
	}
	return TxnID{}, false
}

// antecedentIDs returns the direct antecedents ante(x) of a transaction as
// seen by this peer: for each tuple value x deletes or modifies, the
// transaction that produced that value in the peer's instance. It must be
// called before the transaction itself is recorded; NewLocalTransaction
// calls it and returns the result with the transaction.
func (e *Engine) antecedentIDs(x *Transaction) []TxnID {
	var out []TxnID
	seen := map[TxnID]bool{x.ID: true}
	// Values produced earlier within the same transaction chain to the
	// transaction itself, not to an external antecedent.
	local := map[tupleKey]bool{}
	for _, u := range x.Updates {
		if u.Consumes() != nil {
			k := u.consumedKey()
			if !local[k] {
				if p, ok := e.producers.Get(k); ok && !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
		if u.Produces() != nil {
			local[u.producedKey()] = true
		}
	}
	return out
}

// ProducerOf returns the transaction that produced the given tuple value in
// this peer's instance, if known.
func (e *Engine) ProducerOf(rel string, t Tuple) (TxnID, bool) {
	return e.producers.Get(mkTupleKey(rel, t))
}
