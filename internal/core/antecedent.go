package core

import (
	"fmt"
	"sort"
)

// AntecedentGraph maintains, over the global published sequence ∆, the
// antecedent relation of Definition 3: ante(X) contains any earlier
// transaction X′ that inserted, or modified a tuple into, a value that X
// directly deletes or modifies. It also records every published transaction
// and its global order, and therefore acts as the published-update log.
//
// Transactions must be added in publication order. The graph is the
// store-side structure from which update extensions are computed ("the
// determination of update extensions takes place inside the DBMS"; in the
// DHT store each transaction controller holds its transaction's antecedent
// set).
type AntecedentGraph struct {
	schema *Schema
	// producers maps a live tuple value to the transaction that produced it.
	producers map[tupleKey]TxnID
	ante      map[TxnID][]TxnID
	txns      map[TxnID]*Transaction
	order     []TxnID
	nextOrder uint64
}

// NewAntecedentGraph returns an empty graph over the schema.
func NewAntecedentGraph(s *Schema) *AntecedentGraph {
	return &AntecedentGraph{
		schema:    s,
		producers: make(map[tupleKey]TxnID),
		ante:      make(map[TxnID][]TxnID),
		txns:      make(map[TxnID]*Transaction),
	}
}

// Add appends a published transaction to the log, assigning its global
// order, and computes its direct antecedents. Adding the same transaction
// twice is an error; publication order must follow epoch order (enforced by
// the stores).
func (g *AntecedentGraph) Add(x *Transaction) error {
	if _, dup := g.txns[x.ID]; dup {
		return fmt.Errorf("core: transaction %s already published", x.ID)
	}
	x.Order = g.nextOrder
	g.nextOrder++
	g.txns[x.ID] = x
	g.order = append(g.order, x.ID)

	var antes []TxnID
	seen := map[TxnID]bool{}
	for _, u := range x.Updates {
		// Maintain the producer map as the log evolves, chaining
		// within-transaction sequences to the transaction itself.
		if u.Consumes() != nil {
			k := u.consumedKey()
			if p, ok := g.producers[k]; ok && p != x.ID && !seen[p] {
				seen[p] = true
				antes = append(antes, p)
			}
			delete(g.producers, k)
		}
		if u.Produces() != nil {
			g.producers[u.producedKey()] = x.ID
		}
	}
	if len(antes) > 0 {
		g.ante[x.ID] = antes
	}
	return nil
}

// Txn returns a published transaction by ID.
func (g *AntecedentGraph) Txn(id TxnID) (*Transaction, bool) {
	x, ok := g.txns[id]
	return x, ok
}

// Len returns the number of published transactions.
func (g *AntecedentGraph) Len() int { return len(g.order) }

// Antecedents returns the direct antecedents ante(X) of the transaction.
func (g *AntecedentGraph) Antecedents(id TxnID) []TxnID {
	return g.ante[id]
}

// InOrder returns the published transactions with Order in [from, to),
// in publication order.
func (g *AntecedentGraph) InOrder(from, to uint64) []*Transaction {
	var out []*Transaction
	for _, id := range g.order {
		x := g.txns[id]
		if x.Order >= from && x.Order < to {
			out = append(out, x)
		}
	}
	return out
}

// Extension computes the transaction extension te_i|e(X) of Definition 3:
// the transitive closure of X's antecedents, excluding transactions already
// accepted ("applied") by the reconciling participant, sorted by global
// publication order. X itself is always included (even if applied, which
// callers filter upstream).
func (g *AntecedentGraph) Extension(root TxnID, applied func(TxnID) bool) ([]*Transaction, error) {
	rx, ok := g.txns[root]
	if !ok {
		return nil, fmt.Errorf("core: extension of unpublished transaction %s", root)
	}
	visited := map[TxnID]bool{root: true}
	out := []*Transaction{rx}
	stack := append([]TxnID(nil), g.ante[root]...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[id] {
			continue
		}
		visited[id] = true
		if applied != nil && applied(id) {
			continue
		}
		x, ok := g.txns[id]
		if !ok {
			return nil, fmt.Errorf("core: antecedent %s of %s not in log", id, root)
		}
		out = append(out, x)
		stack = append(stack, g.ante[id]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out, nil
}
