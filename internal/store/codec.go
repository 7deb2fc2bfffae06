package store

import (
	"encoding/binary"
	"fmt"

	"orchestra/internal/codec"
	"orchestra/internal/core"
)

// payloadVersion tags the binary encoding of published batches, which
// outlive the process that wrote them: a payload of another version is an
// explicit error, never a silent misparse.
const payloadVersion = 1

// The codecs in this file share one transaction writer (appendTxn) and one
// reader (readTxn), over codec.Reader. Only the publish payload reaches
// disk, in txns_k rows, so only it carries a version byte; a
// Reconciliation and a decision-batch slice exist only on the wire, where
// the rpc envelope's protocol version covers them. Decoders give back what
// gob did: a zero count decodes to a nil slice, an empty tuple to a nil
// Tuple — so an update whose New is present but empty decodes to a nil
// New, which re-encodes as absent. That is the one input with a second
// encoding; everything else the reader accepts re-encodes to its input.

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
		dst = codec.AppendStr(dst, string(b.Peer))
		dst = binary.AppendVarint(dst, int64(b.Recno))
		dst = appendIDs(dst, b.Accepted)
		dst = appendIDs(dst, b.Rejected)
	}
	return dst
}

// appendTxn writes one transaction: origin, seq, epoch, order, then each
// update as (op, relation, origin, tuple, New present, New).
func appendTxn(dst []byte, x *core.Transaction) []byte {
	dst = codec.AppendStr(dst, string(x.ID.Origin))
	dst = binary.AppendUvarint(dst, x.ID.Seq)
	dst = binary.AppendUvarint(dst, uint64(x.Epoch))
	dst = binary.AppendUvarint(dst, x.Order)
	dst = binary.AppendUvarint(dst, uint64(len(x.Updates)))
	for j := range x.Updates {
		u := &x.Updates[j]
		dst = append(dst, byte(u.Op))
		dst = codec.AppendStr(dst, u.Rel)
		dst = codec.AppendStr(dst, string(u.Origin))
		dst = codec.AppendStr(dst, u.Tuple.Encode())
		if u.New == nil {
			dst = append(dst, 0)
		} else {
			dst = codec.AppendStr(append(dst, 1), u.New.Encode())
		}
	}
	return dst
}

func appendIDs(dst []byte, ids []core.TxnID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = codec.AppendStr(dst, string(id.Origin))
		dst = binary.AppendUvarint(dst, id.Seq)
	}
	return dst
}

// readTuple reads a tuple encoding appendTxn or AppendSnapshot wrote.
func readTuple(r *codec.Reader) core.Tuple {
	t, err := core.DecodeTuple(r.Str())
	if err != nil {
		r.Fail(err)
	}
	return t
}

// readTxn reads what appendTxn wrote.
func readTxn(r *codec.Reader) *core.Transaction {
	x := &core.Transaction{}
	x.ID.Origin = core.PeerID(r.Str())
	x.ID.Seq = r.Uvarint()
	x.Epoch = core.Epoch(r.Uvarint())
	x.Order = r.Uvarint()
	if n := r.Count(); n > 0 {
		x.Updates = make([]core.Update, 0, n)
		for j := 0; j < n && r.Err() == nil; j++ {
			u := core.Update{Op: core.Op(r.Byte()), Rel: r.Str(), Origin: core.PeerID(r.Str())}
			tuple, newt := r.Str(), ""
			hasNew := r.Flag()
			if hasNew {
				newt = r.Str()
			}
			if r.Err() == nil {
				// The strings read are the tuples' canonical encodings:
				// the update keeps them as its encoding cache.
				if err := u.DecodeTuples(tuple, newt, hasNew); err != nil {
					r.Fail(err)
				}
			}
			x.Updates = append(x.Updates, u)
		}
	}
	return x
}

// readIDs reads what appendIDs wrote.
func readIDs(r *codec.Reader) []core.TxnID {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]core.TxnID, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, core.TxnID{Origin: core.PeerID(r.Str()), Seq: r.Uvarint()})
	}
	return out
}

// DecodePublishedTxns decodes a payload produced by AppendPublishedTxns.
func DecodePublishedTxns(payload []byte) ([]PublishedTxn, error) {
	r := codec.NewReader(payload)
	if v := r.Byte(); r.Err() == nil && v != payloadVersion {
		return nil, fmt.Errorf("store: payload version %d, want %d (no migration path across payload versions)", v, payloadVersion)
	}
	n := r.Count()
	out := make([]PublishedTxn, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		x := readTxn(&r)
		out = append(out, PublishedTxn{Txn: x, Antecedents: readIDs(&r)})
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("store: publish payload: %w", err)
	}
	return out, nil
}

// DecodeReconciliation decodes a payload produced by AppendReconciliation.
func DecodeReconciliation(payload []byte) (*Reconciliation, error) {
	r := codec.NewReader(payload)
	rec := &Reconciliation{
		Recno:     int(r.Varint()),
		FromEpoch: core.Epoch(r.Uvarint()),
		ToEpoch:   core.Epoch(r.Uvarint()),
	}
	if n := r.Count(); n > 0 {
		rec.Candidates = make([]*core.Candidate, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			c := &core.Candidate{}
			if r.Flag() {
				c.Txn = readTxn(&r)
			}
			c.Priority = int(r.Varint())
			if ne := r.Count(); ne > 0 {
				c.Ext = make([]*core.Transaction, 0, ne)
				for j := 0; j < ne && r.Err() == nil; j++ {
					c.Ext = append(c.Ext, readTxn(&r))
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
	r := codec.NewReader(payload)
	var out []DecisionBatch
	if n := r.Count(); n > 0 {
		out = make([]DecisionBatch, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			b := DecisionBatch{Peer: core.PeerID(r.Str()), Recno: int(r.Varint())}
			b.Accepted = readIDs(&r)
			b.Rejected = readIDs(&r)
			out = append(out, b)
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return out, nil
}
