package core

import "fmt"

// PeerID identifies a participant in the CDSS.
type PeerID string

// Op is the kind of a single tuple-level update.
type Op uint8

// The three update operations from the paper: insert +R(ā;i), delete
// −R(ā;i), and modify (replacement) R(ā→ā′;i).
const (
	OpInsert Op = iota + 1
	OpDelete
	OpModify
)

// String returns the paper's notation sigil for the op.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "+"
	case OpDelete:
		return "-"
	case OpModify:
		return "~"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Update is one tuple-level change annotated with the identity of its
// originating participant. For OpInsert and OpDelete, Tuple holds the
// inserted/deleted tuple and New is nil. For OpModify, Tuple holds the
// antecedent value ā and New holds the replacement ā′.
type Update struct {
	Op     Op
	Rel    string
	Tuple  Tuple
	New    Tuple // only for OpModify
	Origin PeerID

	// enc caches the canonical encodings the reconciliation hot path needs
	// (full tuple encodings and key projections under the shared schema Σ).
	// Decoders seed it (DecodeTuples) with the tuple encodings they read,
	// which equal Encode() because decoding is canonical; cacheEnc then
	// adds the key projections — at transaction validation, at
	// PrecomputeEncodings, or when Flatten emits the update. It is shared
	// by copies of the update and complete before the update is shared, so
	// concurrent readers are safe. A nil enc, or one without keys, means
	// "compute on demand". The cache is ignored by Equal, String, and every
	// encoder.
	enc *updateEnc
}

// updateEnc is the per-update encoding cache; see Update.enc.
type updateEnc struct {
	tuple string // Tuple.Encode()
	newt  string // New.Encode() ("" when New is nil)
	keyT  string // rel.KeyEnc(Tuple); "" until cacheEnc runs (a key encoding never is)
	keyN  string // rel.KeyEnc(New) ("" when New is nil)
}

// DecodeTuples sets u.Tuple, and u.New when hasNew, by decoding the
// canonical encodings tuple and newt, and seeds u's encoding cache with
// those strings, so a decoded update is never re-encoded. The tuples'
// string values are substrings of tuple and newt.
func (u *Update) DecodeTuples(tuple, newt string, hasNew bool) error {
	var err error
	if u.Tuple, err = DecodeTuple(tuple); err != nil {
		return err
	}
	u.New = nil
	if hasNew {
		if u.New, err = DecodeTuple(newt); err != nil {
			return err
		}
	}
	u.enc = &updateEnc{tuple: tuple}
	if u.New != nil {
		u.enc.newt = newt
	}
	return nil
}

// cacheEnc completes the encoding cache: the tuple encodings unless a
// decoder seeded them, then the key projections. rel must be the relation
// the update targets under the shared schema. It is idempotent and must
// not race with readers: an update shared between goroutines is cached
// before it is shared.
func (u *Update) cacheEnc(rel *Relation) {
	e := u.enc
	switch {
	case e == nil:
		e = &updateEnc{tuple: u.Tuple.Encode()}
		if u.New != nil {
			e.newt = u.New.Encode()
		}
		u.enc = e
	case e.keyT != "":
		return
	}
	e.keyT = rel.KeyEnc(u.Tuple)
	if u.New != nil {
		e.keyN = rel.KeyEnc(u.New)
	}
}

// tupleEnc returns Tuple's canonical encoding, cached when available.
func (u *Update) tupleEnc() string {
	if u.enc != nil {
		return u.enc.tuple
	}
	return u.Tuple.Encode()
}

// newEnc returns New's canonical encoding ("" for nil), cached when
// available.
func (u *Update) newEnc() string {
	if u.enc != nil {
		return u.enc.newt
	}
	return u.New.Encode()
}

// keyEncTuple returns rel.KeyEnc(Tuple), cached when available.
func (u *Update) keyEncTuple(rel *Relation) string {
	if u.enc != nil && u.enc.keyT != "" {
		return u.enc.keyT
	}
	return rel.KeyEnc(u.Tuple)
}

// keyEncNew returns rel.KeyEnc(New), cached when available.
func (u *Update) keyEncNew(rel *Relation) string {
	if u.enc != nil && u.enc.keyT != "" {
		return u.enc.keyN
	}
	return rel.KeyEnc(u.New)
}

// consumedKey is mkTupleKey(u.Rel, u.Consumes()) and producedKey is
// mkTupleKey(u.Rel, u.Produces()), from the cached encodings when
// available; callers check that the tuple is non-nil.
func (u *Update) consumedKey() tupleKey { return tupleKey{rel: u.Rel, enc: u.tupleEnc()} }

func (u *Update) producedKey() tupleKey {
	if u.Op == OpModify {
		return tupleKey{rel: u.Rel, enc: u.newEnc()}
	}
	return tupleKey{rel: u.Rel, enc: u.tupleEnc()}
}

// Insert builds +rel(t; origin).
func Insert(rel string, t Tuple, origin PeerID) Update {
	return Update{Op: OpInsert, Rel: rel, Tuple: t, Origin: origin}
}

// Delete builds −rel(t; origin).
func Delete(rel string, t Tuple, origin PeerID) Update {
	return Update{Op: OpDelete, Rel: rel, Tuple: t, Origin: origin}
}

// Modify builds rel(old→new; origin).
func Modify(rel string, old, new Tuple, origin PeerID) Update {
	return Update{Op: OpModify, Rel: rel, Tuple: old, New: new, Origin: origin}
}

// Validate checks the update's tuples against the relation definition.
func (u Update) Validate(s *Schema) error {
	r, ok := s.Relation(u.Rel)
	if !ok {
		return fmt.Errorf("core: update over unknown relation %s", u.Rel)
	}
	switch u.Op {
	case OpInsert, OpDelete:
		if u.New != nil {
			return fmt.Errorf("core: %v update must not carry a replacement tuple", u.Op)
		}
		return r.Validate(u.Tuple)
	case OpModify:
		if err := r.Validate(u.Tuple); err != nil {
			return err
		}
		return r.Validate(u.New)
	default:
		return fmt.Errorf("core: unknown update op %d", u.Op)
	}
}

// Equal reports whether two updates are identical operations (same op,
// relation and tuples); origin is ignored, matching the paper's treatment of
// duplicate updates as non-conflicting.
func (u Update) Equal(v Update) bool {
	return u.Op == v.Op && u.Rel == v.Rel && u.Tuple.Equal(v.Tuple) &&
		((u.New == nil) == (v.New == nil)) && u.New.Equal(v.New)
}

// Produces returns the tuple value this update creates in the instance, or
// nil: the inserted tuple for OpInsert, the replacement for OpModify.
func (u Update) Produces() Tuple {
	switch u.Op {
	case OpInsert:
		return u.Tuple
	case OpModify:
		return u.New
	}
	return nil
}

// Consumes returns the antecedent tuple value this update reads/destroys, or
// nil: the deleted tuple for OpDelete, the source for OpModify.
func (u Update) Consumes() Tuple {
	switch u.Op {
	case OpDelete:
		return u.Tuple
	case OpModify:
		return u.Tuple
	}
	return nil
}

// String renders the update in the paper's notation, e.g.
// "+F(rat, prot1, cell-metab; p3)".
func (u Update) String() string {
	switch u.Op {
	case OpInsert:
		return fmt.Sprintf("+%s%s; %s)", u.Rel, trimParen(u.Tuple.String()), u.Origin)
	case OpDelete:
		return fmt.Sprintf("-%s%s; %s)", u.Rel, trimParen(u.Tuple.String()), u.Origin)
	case OpModify:
		return fmt.Sprintf("%s(%s -> %s; %s)", u.Rel, inner(u.Tuple.String()), inner(u.New.String()), u.Origin)
	default:
		return fmt.Sprintf("?%s%s", u.Rel, u.Tuple)
	}
}

// trimParen converts "(a, b)" to "(a, b" + "; origin)" composition helper.
func trimParen(s string) string {
	if len(s) >= 1 && s[len(s)-1] == ')' {
		return s[:len(s)-1]
	}
	return s
}

func inner(s string) string {
	if len(s) >= 2 && s[0] == '(' && s[len(s)-1] == ')' {
		return s[1 : len(s)-1]
	}
	return s
}
