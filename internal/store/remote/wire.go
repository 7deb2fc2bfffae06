package remote

import (
	"encoding/binary"
	"errors"
	"sort"

	"orchestra/internal/codec"
	"orchestra/internal/core"
	"orchestra/internal/store"
)

// The wire bodies' format. Every args and reply type of the 10 ops
// implements wireBody, and serve and call accept no other, so a body
// without a codec does not compile. A body carries no version byte of its
// own: the rpc envelope's protocol version covers it. Strings are a
// uvarint length and the bytes (codec.AppendStr), epochs a uvarint of their
// bits, signed integers a zigzag varint. Readers are codec.Reader: every
// length and count is checked against the bytes that remain, varints must
// be minimal, and trailing bytes are an error, so a body that decodes
// re-encodes to itself. A body that ends
// in bytes another codec owns (a publish payload, a snapshot, a
// Reconciliation, a decision batch slice) carries them as its rest, with
// no length prefix.
//
//	register        Peer, Policy              -> none
//	publish         Peer, Key, payload...     -> Epoch
//	begin           Peer, Key                 -> Reconciliation...
//	decide.batch    Key, batches...           -> none
//	snapshot.take   Key                       -> Epoch
//	snapshot        (empty)                   -> snapshot...
//	replayfrom      Peer, From, AfterSeq      -> decisions, log...
//	compact         Epoch, Key                -> none
//	watch           From, WaitNanos           -> To
//	trust.effective Peer, Key                 -> Policy
type wireBody[T any] interface {
	*T
	appendWire(dst []byte) []byte
	readWire(b []byte) error
}

func (a *registerArgs) appendWire(dst []byte) []byte {
	return codec.AppendStr(codec.AppendStr(dst, string(a.Peer)), a.Policy)
}

func (a *registerArgs) readWire(b []byte) error {
	r := codec.NewReader(b)
	a.Peer, a.Policy = core.PeerID(r.Str()), r.Str()
	return r.End()
}

func (a *publishArgs) appendWire(dst []byte) []byte {
	dst = codec.AppendStr(codec.AppendStr(dst, string(a.Peer)), string(a.Key))
	return append(dst, a.Payload...)
}

func (a *publishArgs) readWire(b []byte) error {
	r := codec.NewReader(b)
	a.Peer, a.Key = core.PeerID(r.Str()), store.IdempotencyKey(r.Str())
	a.Payload = r.Rest()
	return r.End()
}

func (a *peerArgs) appendWire(dst []byte) []byte {
	return codec.AppendStr(codec.AppendStr(dst, string(a.Peer)), string(a.Key))
}

func (a *peerArgs) readWire(b []byte) error {
	r := codec.NewReader(b)
	a.Peer, a.Key = core.PeerID(r.Str()), store.IdempotencyKey(r.Str())
	return r.End()
}

func (a *decideBatchArgs) appendWire(dst []byte) []byte {
	return store.AppendDecisionBatches(codec.AppendStr(dst, string(a.Key)), a.Batches)
}

func (a *decideBatchArgs) readWire(b []byte) error {
	r := codec.NewReader(b)
	a.Key = store.IdempotencyKey(r.Str())
	// A torn key leaves no rest, which the batch decoder refuses.
	var err error
	a.Batches, err = store.DecodeDecisionBatches(r.Rest())
	return err
}

func (a *takeSnapshotArgs) appendWire(dst []byte) []byte { return codec.AppendStr(dst, string(a.Key)) }

func (a *takeSnapshotArgs) readWire(b []byte) error {
	r := codec.NewReader(b)
	a.Key = store.IdempotencyKey(r.Str())
	return r.End()
}

func (a *replayFromArgs) appendWire(dst []byte) []byte {
	dst = binary.AppendUvarint(codec.AppendStr(dst, string(a.Peer)), uint64(a.From))
	return binary.AppendVarint(dst, a.AfterSeq)
}

func (a *replayFromArgs) readWire(b []byte) error {
	r := codec.NewReader(b)
	a.Peer, a.From, a.AfterSeq = core.PeerID(r.Str()), core.Epoch(r.Uvarint()), r.Varint()
	return r.End()
}

func (a *compactArgs) appendWire(dst []byte) []byte {
	return codec.AppendStr(binary.AppendUvarint(dst, uint64(a.Epoch)), string(a.Key))
}

func (a *compactArgs) readWire(b []byte) error {
	r := codec.NewReader(b)
	a.Epoch, a.Key = core.Epoch(r.Uvarint()), store.IdempotencyKey(r.Str())
	return r.End()
}

func (a *watchArgs) appendWire(dst []byte) []byte {
	return binary.AppendVarint(binary.AppendUvarint(dst, uint64(a.From)), a.WaitNanos)
}

func (a *watchArgs) readWire(b []byte) error {
	r := codec.NewReader(b)
	a.From, a.WaitNanos = core.Epoch(r.Uvarint()), r.Varint()
	return r.End()
}

func (*none) appendWire(dst []byte) []byte { return dst }

func (*none) readWire(b []byte) error {
	r := codec.NewReader(b)
	return r.End()
}

func (a *epochReply) appendWire(dst []byte) []byte { return binary.AppendUvarint(dst, uint64(a.Epoch)) }

func (a *epochReply) readWire(b []byte) error {
	r := codec.NewReader(b)
	a.Epoch = core.Epoch(r.Uvarint())
	return r.End()
}

func (a *effTrustReply) appendWire(dst []byte) []byte { return codec.AppendStr(dst, a.Policy) }

func (a *effTrustReply) readWire(b []byte) error {
	r := codec.NewReader(b)
	a.Policy = r.Str()
	return r.End()
}

// appendWire writes the decisions sorted by TxnID, so the encoding is
// deterministic, then the log as the rest. A presence byte before the
// count tells a nil map from an empty one: gob delivered an empty map as
// empty, not nil, and the decoder keeps that. The decoder refuses ids out
// of TxnID.Less order, a repeated one among them, so a decision map has
// one encoding.
func (a *replayReply) appendWire(dst []byte) []byte {
	if a.Decisions == nil {
		return append(append(dst, 0), a.Log...)
	}
	ids := make([]core.TxnID, 0, len(a.Decisions))
	for id := range a.Decisions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	dst = binary.AppendUvarint(append(dst, 1), uint64(len(ids)))
	for _, id := range ids {
		d := a.Decisions[id]
		dst = binary.AppendUvarint(codec.AppendStr(dst, string(id.Origin)), id.Seq)
		dst = binary.AppendVarint(append(dst, byte(d.Decision)), d.Seq)
	}
	return append(dst, a.Log...)
}

var errUnsortedDecisions = errors.New("remote: replay decisions out of TxnID order")

func (a *replayReply) readWire(b []byte) error {
	r := codec.NewReader(b)
	if r.Flag() {
		n := r.Count()
		a.Decisions = make(map[core.TxnID]core.RestoredDecision, n)
		var last core.TxnID
		for i := range n {
			id := core.TxnID{Origin: core.PeerID(r.Str()), Seq: r.Uvarint()}
			if i > 0 && !last.Less(id) {
				r.Fail(errUnsortedDecisions)
			}
			a.Decisions[id], last = core.RestoredDecision{Decision: core.Decision(r.Byte()), Seq: r.Varint()}, id
		}
	}
	a.Log = r.Rest()
	return r.End()
}

func (a *snapshotReply) appendWire(dst []byte) []byte { return append(dst, a.Snapshot...) }

func (a *snapshotReply) readWire(b []byte) error {
	r := codec.NewReader(b)
	a.Snapshot = r.Rest()
	return r.End()
}

func (a *watchReply) appendWire(dst []byte) []byte { return binary.AppendUvarint(dst, uint64(a.To)) }

func (a *watchReply) readWire(b []byte) error {
	r := codec.NewReader(b)
	a.To = core.Epoch(r.Uvarint())
	return r.End()
}

// reconciliation is begin's reply: store.Reconciliation itself, under a
// name that can carry the codec's methods.
type reconciliation store.Reconciliation

func (a *reconciliation) appendWire(dst []byte) []byte {
	return store.AppendReconciliation(dst, (*store.Reconciliation)(a))
}

func (a *reconciliation) readWire(b []byte) error {
	rec, err := store.DecodeReconciliation(b)
	if err != nil {
		return err
	}
	*a = reconciliation(*rec)
	return nil
}
