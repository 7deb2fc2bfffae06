package core

import (
	"cmp"
	"fmt"
	"sort"
)

// Epoch is the reconciliation epoch counter e: it is incremented each time a
// participant publishes. Epoch 0 means "before the first publication".
type Epoch int64

// TxnID identifies a transaction X_{i:j}: the originating participant i and
// its local transaction sequence number j. Local transaction identifiers are
// assigned in increasing order by each participant.
type TxnID struct {
	Origin PeerID
	Seq    uint64
}

// String renders the ID in the paper's X_{i:j} style, e.g. "p3:1".
func (id TxnID) String() string { return fmt.Sprintf("%s:%d", id.Origin, id.Seq) }

// Less orders transaction IDs lexicographically; used only for deterministic
// output, not for the global publication order (see Transaction.Order).
func (id TxnID) Less(other TxnID) bool {
	if id.Origin != other.Origin {
		return id.Origin < other.Origin
	}
	return id.Seq < other.Seq
}

// compareTxnIDs orders IDs as TxnID.Less does, for the slices package.
func compareTxnIDs(a, b TxnID) int {
	return cmp.Or(cmp.Compare(a.Origin, b.Origin), cmp.Compare(a.Seq, b.Seq))
}

// Transaction is an atomic group of updates X_{i:j} published by a single
// participant.
type Transaction struct {
	ID      TxnID
	Updates []Update

	// Epoch is the publication epoch assigned by the update store; zero
	// until published.
	Epoch Epoch
	// Order is the global position of the transaction in the published
	// sequence ∆, assigned by the update store; it totally orders all
	// published transactions and respects Epoch.
	Order uint64

	// encDone records that every update's encoding cache has been populated
	// (see Update.cacheEnc); set by Validate and PrecomputeEncodings.
	encDone bool
}

// NewTransaction builds an unpublished transaction. Each update's origin is
// forced to the transaction's originator so that single-origin annotation
// holds by construction.
func NewTransaction(id TxnID, updates ...Update) *Transaction {
	x := &Transaction{ID: id, Updates: make([]Update, len(updates))}
	for i, u := range updates {
		u.Origin = id.Origin
		x.Updates[i] = u
	}
	return x
}

// Validate checks every update against the schema and that the transaction
// is non-empty. As a side effect it populates each update's encoding cache,
// so the reconciliation hot path never re-encodes validated tuples.
func (x *Transaction) Validate(s *Schema) error {
	if len(x.Updates) == 0 {
		return fmt.Errorf("core: transaction %s is empty", x.ID)
	}
	for i, u := range x.Updates {
		if u.Origin != x.ID.Origin {
			return fmt.Errorf("core: transaction %s: update %d has origin %s", x.ID, i, u.Origin)
		}
		if err := u.Validate(s); err != nil {
			return fmt.Errorf("core: transaction %s: update %d: %w", x.ID, i, err)
		}
	}
	x.PrecomputeEncodings(s)
	return nil
}

// PrecomputeEncodings populates the encoding caches of the transaction's
// updates. Idempotent but not synchronized: it mutates the transaction, so
// it must not race with other readers or writers. An update store that
// hands the *same* *Transaction pointers to multiple peers (e.g. the
// in-memory central store) must warm them once at ingestion, under its own
// lock, so concurrently reconciling peers only ever observe a fully
// populated cache.
func (x *Transaction) PrecomputeEncodings(s *Schema) {
	if x.encDone {
		return
	}
	for i := range x.Updates {
		if rel, ok := s.Relation(x.Updates[i].Rel); ok {
			x.Updates[i].cacheEnc(rel)
		}
	}
	x.encDone = true
}

// Clone returns a deep-enough copy (updates slice is copied; tuples are
// immutable by convention).
func (x *Transaction) Clone() *Transaction {
	y := *x
	y.Updates = make([]Update, len(x.Updates))
	copy(y.Updates, x.Updates)
	return &y
}

// String renders the transaction header and updates.
func (x *Transaction) String() string {
	s := "X" + x.ID.String() + "{"
	for i, u := range x.Updates {
		if i > 0 {
			s += ", "
		}
		s += u.String()
	}
	return s + "}"
}

// UpdateFootprint returns the update footprint uf(L) of a list of
// transactions sorted by application order: the concatenation of their
// constituent updates.
func UpdateFootprint(list []*Transaction) []Update {
	var n int
	for _, x := range list {
		n += len(x.Updates)
	}
	out := make([]Update, 0, n)
	for _, x := range list {
		out = append(out, x.Updates...)
	}
	return out
}

// TxnSet is a set of transaction IDs.
type TxnSet map[TxnID]struct{}

// NewTxnSet builds a set from IDs.
func NewTxnSet(ids ...TxnID) TxnSet {
	s := make(TxnSet, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s TxnSet) Has(id TxnID) bool {
	_, ok := s[id]
	return ok
}

// Add inserts an ID.
func (s TxnSet) Add(id TxnID) { s[id] = struct{}{} }

// AddAll inserts the IDs of all given transactions.
func (s TxnSet) AddAll(xs []*Transaction) {
	for _, x := range xs {
		s.Add(x.ID)
	}
}

// Sorted returns the members sorted by ID, for deterministic output.
func (s TxnSet) Sorted() []TxnID {
	out := make([]TxnID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
