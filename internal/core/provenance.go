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
// the transaction that wrote them.
func (e *Engine) noteProducers(xs []*Transaction) {
	for _, x := range xs {
		for _, u := range x.Updates {
			if u.Consumes() != nil {
				delete(e.producers, u.consumedKey())
			}
			if u.Produces() != nil {
				e.producers[u.producedKey()] = x.ID
			}
		}
	}
}

// AntecedentIDs returns the direct antecedents ante(x) of a transaction as
// seen by this peer: for each tuple value x deletes or modifies, the
// transaction that produced that value in the peer's instance. It must be
// called before the transaction itself is recorded (NewLocalTransaction
// does this internally and exposes the result via PendingAntecedents).
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
				if p, ok := e.producers[k]; ok && !seen[p] {
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
	id, ok := e.producers[mkTupleKey(rel, t)]
	return id, ok
}
