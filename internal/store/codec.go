package store

import (
	"encoding/binary"
	"fmt"

	"orchestra/internal/core"
)

// payloadVersion tags the hand-rolled binary encoding of published
// batches. The central store previously stored batches as gob streams;
// gob's per-encoder type descriptors dominated the publish CPU profile, so
// batches are now encoded with this reflection-free codec. Old gob
// payloads are not migratable (the version byte makes the mismatch an
// explicit error).
const payloadVersion = 1

// The codecs in this file share one transaction writer (appendTxn) and one
// reader (Reader.txn). Only the publish payload reaches disk, in
// txns_k rows, so only it carries a version byte; a Reconciliation and a
// decision-batch slice exist only on the wire, where the rpc envelope's
// protocol version covers them. Decoders give back what gob did: a zero
// count decodes to a nil slice, an empty tuple to a nil Tuple.

// AppendPublishedTxns encodes a published batch into a compact binary
// payload, appending to dst. The format is length-prefixed throughout:
// version byte, then each transaction as (origin, seq, epoch, order,
// updates, antecedents) with tuples in their canonical core encoding.
func AppendPublishedTxns(dst []byte, txns []PublishedTxn) []byte {
	dst = append(dst, payloadVersion)
	dst = binary.AppendUvarint(dst, uint64(len(txns)))
	for i := range txns {
		dst = appendTxn(dst, txns[i].Txn)
		dst = appendIDs(dst, txns[i].Antecedents)
	}
	return dst
}

// AppendReconciliation encodes a store's answer to BeginReconciliation:
// recno, the epoch window, then each candidate as (Txn present, Txn,
// priority, extension).
func AppendReconciliation(dst []byte, rec *Reconciliation) []byte {
	dst = binary.AppendVarint(dst, int64(rec.Recno))
	dst = binary.AppendUvarint(dst, uint64(rec.FromEpoch))
	dst = binary.AppendUvarint(dst, uint64(rec.ToEpoch))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Candidates)))
	for _, c := range rec.Candidates {
		if c.Txn == nil {
			dst = append(dst, 0)
		} else {
			dst = appendTxn(append(dst, 1), c.Txn)
		}
		dst = binary.AppendVarint(dst, int64(c.Priority))
		dst = binary.AppendUvarint(dst, uint64(len(c.Ext)))
		for _, x := range c.Ext {
			dst = appendTxn(dst, x)
		}
	}
	return dst
}

// AppendDecisionBatches encodes the argument of RecordDecisionsBatch: each
// batch as (peer, recno, accepted, rejected).
func AppendDecisionBatches(dst []byte, batches []DecisionBatch) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(batches)))
	for i := range batches {
		b := &batches[i]
		dst = AppendStr(dst, string(b.Peer))
		dst = binary.AppendVarint(dst, int64(b.Recno))
		dst = appendIDs(dst, b.Accepted)
		dst = appendIDs(dst, b.Rejected)
	}
	return dst
}

// AppendStr writes s as a uvarint length and its bytes.
func AppendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendTxn writes one transaction: origin, seq, epoch, order, then each
// update as (op, relation, origin, tuple, New present, New).
func appendTxn(dst []byte, x *core.Transaction) []byte {
	dst = AppendStr(dst, string(x.ID.Origin))
	dst = binary.AppendUvarint(dst, x.ID.Seq)
	dst = binary.AppendUvarint(dst, uint64(x.Epoch))
	dst = binary.AppendUvarint(dst, x.Order)
	dst = binary.AppendUvarint(dst, uint64(len(x.Updates)))
	for j := range x.Updates {
		u := &x.Updates[j]
		dst = append(dst, byte(u.Op))
		dst = AppendStr(dst, u.Rel)
		dst = AppendStr(dst, string(u.Origin))
		dst = AppendStr(dst, u.Tuple.Encode())
		if u.New == nil {
			dst = append(dst, 0)
		} else {
			dst = AppendStr(append(dst, 1), u.New.Encode())
		}
	}
	return dst
}

func appendIDs(dst []byte, ids []core.TxnID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = AppendStr(dst, string(id.Origin))
		dst = binary.AppendUvarint(dst, id.Seq)
	}
	return dst
}

// Reader walks bytes written by this package's codecs and by the remote
// wire bodies, which share it. The first failure sticks: every later read
// returns a zero value, so decoders check the error once per loop, and End
// reports it.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("store: truncated payload")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("store: truncated payload")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Str reads what AppendStr wrote.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.err = fmt.Errorf("store: truncated payload string")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.err = fmt.Errorf("store: truncated payload")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Flag reads a presence byte, which is 0 or 1.
func (r *Reader) Flag() bool {
	c := r.Byte()
	if c > 1 && r.err == nil {
		r.err = fmt.Errorf("store: presence byte %d", c)
	}
	return c == 1
}

// Count reads an element count and checks it against the bytes that
// remain (every element costs at least one), so a corrupt varint yields a
// decode error, not a giant allocation.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = fmt.Errorf("store: count %d exceeds the %d bytes left", n, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Rest takes every remaining byte, for a body that ends in bytes another
// codec owns: nil when none are left (as gob gave an empty slice back) or
// after a failure.
func (r *Reader) Rest() []byte {
	b := r.b
	r.b = nil
	if len(b) == 0 || r.err != nil {
		return nil
	}
	return b
}

func (r *Reader) tuple() core.Tuple {
	t, err := core.DecodeTuple(r.Str())
	if err != nil && r.err == nil {
		r.err = err
	}
	return t
}

// txn reads what appendTxn wrote.
func (r *Reader) txn() *core.Transaction {
	x := &core.Transaction{}
	x.ID.Origin = core.PeerID(r.Str())
	x.ID.Seq = r.Uvarint()
	x.Epoch = core.Epoch(r.Uvarint())
	x.Order = r.Uvarint()
	if n := r.Count(); n > 0 {
		x.Updates = make([]core.Update, 0, n)
		for j := 0; j < n && r.err == nil; j++ {
			u := core.Update{Op: core.Op(r.Byte())}
			u.Rel = r.Str()
			u.Origin = core.PeerID(r.Str())
			tuple, newt := r.Str(), ""
			hasNew := r.Flag()
			if hasNew {
				newt = r.Str()
			}
			if r.err == nil {
				// The strings read are the tuples' canonical encodings:
				// the update keeps them as its encoding cache.
				r.err = u.DecodeTuples(tuple, newt, hasNew)
			}
			x.Updates = append(x.Updates, u)
		}
	}
	return x
}

func (r *Reader) ids() []core.TxnID {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]core.TxnID, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		id := core.TxnID{Origin: core.PeerID(r.Str())}
		id.Seq = r.Uvarint()
		out = append(out, id)
	}
	return out
}

// End reports the reader's first error, or trailing bytes as one.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("store: %d trailing bytes after payload", len(r.b))
	}
	return r.err
}

// DecodePublishedTxns decodes a payload produced by AppendPublishedTxns.
func DecodePublishedTxns(payload []byte) ([]PublishedTxn, error) {
	r := NewReader(payload)
	if v := r.Byte(); r.err == nil && v != payloadVersion {
		return nil, fmt.Errorf("store: payload version %d, want %d (pre-codec gob payloads have no migration path)", v, payloadVersion)
	}
	n := r.Count()
	out := make([]PublishedTxn, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		x := r.txn()
		out = append(out, PublishedTxn{Txn: x, Antecedents: r.ids()})
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeReconciliation decodes a payload produced by AppendReconciliation.
func DecodeReconciliation(payload []byte) (*Reconciliation, error) {
	r := NewReader(payload)
	rec := &Reconciliation{
		Recno:     int(r.Varint()),
		FromEpoch: core.Epoch(r.Uvarint()),
		ToEpoch:   core.Epoch(r.Uvarint()),
	}
	if n := r.Count(); n > 0 {
		rec.Candidates = make([]*core.Candidate, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			c := &core.Candidate{}
			if r.Flag() {
				c.Txn = r.txn()
			}
			c.Priority = int(r.Varint())
			if ne := r.Count(); ne > 0 {
				c.Ext = make([]*core.Transaction, 0, ne)
				for j := 0; j < ne && r.err == nil; j++ {
					c.Ext = append(c.Ext, r.txn())
				}
			}
			rec.Candidates = append(rec.Candidates, c)
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return rec, nil
}

// DecodeDecisionBatches decodes a payload produced by AppendDecisionBatches.
func DecodeDecisionBatches(payload []byte) ([]DecisionBatch, error) {
	r := NewReader(payload)
	var out []DecisionBatch
	if n := r.Count(); n > 0 {
		out = make([]DecisionBatch, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			b := DecisionBatch{Peer: core.PeerID(r.Str()), Recno: int(r.Varint())}
			b.Accepted = r.ids()
			b.Rejected = r.ids()
			out = append(out, b)
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return out, nil
}
