package remote

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strings"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// The wire bodies' format. Every args and reply type of the 12 ops
// implements wireBody, and serve and call accept no other, so a body
// without a codec does not compile. A body carries no version byte of its
// own: the rpc envelope's protocol version covers it. Strings are a
// uvarint length and the bytes (store.AppendStr), epochs a uvarint of their
// bits, signed integers a zigzag varint. Readers are the store codecs'
// store.Reader: every length and count is checked against the bytes that
// remain, and trailing bytes are an error. A body that ends
// in bytes another codec owns (a publish payload, a snapshot, a
// Reconciliation, a decision batch slice) carries them as its rest, with
// no length prefix.
//
//	register        Peer, Policy              -> none
//	publish         Peer, Key, payload...     -> Epoch
//	begin           Peer, Key                 -> Reconciliation...
//	decide.batch    Key, batches...           -> none
//	recno           Peer, Key                 -> Recno
//	replay          Peer, Key                 -> decisions, log...
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
	return store.AppendStr(store.AppendStr(dst, string(a.Peer)), a.Policy)
}

func (a *registerArgs) readWire(b []byte) error {
	r := store.NewReader(b)
	a.Peer, a.Policy = core.PeerID(r.Str()), r.Str()
	return r.End()
}

func (a *publishArgs) appendWire(dst []byte) []byte {
	dst = store.AppendStr(store.AppendStr(dst, string(a.Peer)), string(a.Key))
	return append(dst, a.Payload...)
}

func (a *publishArgs) readWire(b []byte) error {
	r := store.NewReader(b)
	a.Peer, a.Key = core.PeerID(r.Str()), store.IdempotencyKey(r.Str())
	a.Payload = r.Rest()
	return r.End()
}

func (a *peerArgs) appendWire(dst []byte) []byte {
	return store.AppendStr(store.AppendStr(dst, string(a.Peer)), string(a.Key))
}

func (a *peerArgs) readWire(b []byte) error {
	r := store.NewReader(b)
	a.Peer, a.Key = core.PeerID(r.Str()), store.IdempotencyKey(r.Str())
	return r.End()
}

func (a *decideBatchArgs) appendWire(dst []byte) []byte {
	return store.AppendDecisionBatches(store.AppendStr(dst, string(a.Key)), a.Batches)
}

func (a *decideBatchArgs) readWire(b []byte) error {
	r := store.NewReader(b)
	a.Key = store.IdempotencyKey(r.Str())
	rest := r.Rest()
	if err := r.End(); err != nil {
		return err
	}
	var err error
	a.Batches, err = store.DecodeDecisionBatches(rest)
	return err
}

func (a *takeSnapshotArgs) appendWire(dst []byte) []byte { return store.AppendStr(dst, string(a.Key)) }

func (a *takeSnapshotArgs) readWire(b []byte) error {
	r := store.NewReader(b)
	a.Key = store.IdempotencyKey(r.Str())
	return r.End()
}

func (a *replayFromArgs) appendWire(dst []byte) []byte {
	dst = binary.AppendUvarint(store.AppendStr(dst, string(a.Peer)), uint64(a.From))
	return binary.AppendVarint(dst, a.AfterSeq)
}

func (a *replayFromArgs) readWire(b []byte) error {
	r := store.NewReader(b)
	a.Peer, a.From, a.AfterSeq = core.PeerID(r.Str()), core.Epoch(r.Uvarint()), r.Varint()
	return r.End()
}

func (a *compactArgs) appendWire(dst []byte) []byte {
	return store.AppendStr(binary.AppendUvarint(dst, uint64(a.Epoch)), string(a.Key))
}

func (a *compactArgs) readWire(b []byte) error {
	r := store.NewReader(b)
	a.Epoch, a.Key = core.Epoch(r.Uvarint()), store.IdempotencyKey(r.Str())
	return r.End()
}

func (a *watchArgs) appendWire(dst []byte) []byte {
	return binary.AppendVarint(binary.AppendUvarint(dst, uint64(a.From)), a.WaitNanos)
}

func (a *watchArgs) readWire(b []byte) error {
	r := store.NewReader(b)
	a.From, a.WaitNanos = core.Epoch(r.Uvarint()), r.Varint()
	return r.End()
}

func (*none) appendWire(dst []byte) []byte { return dst }

func (*none) readWire(b []byte) error {
	r := store.NewReader(b)
	return r.End()
}

func (a *epochReply) appendWire(dst []byte) []byte { return binary.AppendUvarint(dst, uint64(a.Epoch)) }

func (a *epochReply) readWire(b []byte) error {
	r := store.NewReader(b)
	a.Epoch = core.Epoch(r.Uvarint())
	return r.End()
}

func (a *recnoReply) appendWire(dst []byte) []byte { return binary.AppendVarint(dst, int64(a.Recno)) }

func (a *recnoReply) readWire(b []byte) error {
	r := store.NewReader(b)
	a.Recno = int(r.Varint())
	return r.End()
}

func (a *effTrustReply) appendWire(dst []byte) []byte { return store.AppendStr(dst, a.Policy) }

func (a *effTrustReply) readWire(b []byte) error {
	r := store.NewReader(b)
	a.Policy = r.Str()
	return r.End()
}

// appendWire writes the decisions sorted by TxnID, so the encoding is
// deterministic, then the log as the rest. A presence byte before the
// count tells a nil map from an empty one: gob delivered an empty map as
// empty, not nil, and the decoder keeps that.
func (a *replayReply) appendWire(dst []byte) []byte {
	if a.Decisions == nil {
		return append(append(dst, 0), a.Log...)
	}
	ids := make([]core.TxnID, 0, len(a.Decisions))
	for id := range a.Decisions {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(x, y core.TxnID) int {
		return cmp.Or(strings.Compare(string(x.Origin), string(y.Origin)), cmp.Compare(x.Seq, y.Seq))
	})
	dst = binary.AppendUvarint(append(dst, 1), uint64(len(ids)))
	for _, id := range ids {
		d := a.Decisions[id]
		dst = binary.AppendUvarint(store.AppendStr(dst, string(id.Origin)), id.Seq)
		dst = binary.AppendVarint(append(dst, byte(d.Decision)), d.Seq)
	}
	return append(dst, a.Log...)
}

func (a *replayReply) readWire(b []byte) error {
	r := store.NewReader(b)
	if r.Flag() {
		n := r.Count()
		a.Decisions = make(map[core.TxnID]core.RestoredDecision, n)
		for range n {
			id := core.TxnID{Origin: core.PeerID(r.Str()), Seq: r.Uvarint()}
			a.Decisions[id] = core.RestoredDecision{Decision: core.Decision(r.Byte()), Seq: r.Varint()}
		}
	}
	a.Log = r.Rest()
	return r.End()
}

func (a *snapshotReply) appendWire(dst []byte) []byte { return append(dst, a.Snapshot...) }

func (a *snapshotReply) readWire(b []byte) error {
	r := store.NewReader(b)
	a.Snapshot = r.Rest()
	return r.End()
}

func (a *watchReply) appendWire(dst []byte) []byte { return binary.AppendUvarint(dst, uint64(a.To)) }

func (a *watchReply) readWire(b []byte) error {
	r := store.NewReader(b)
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
