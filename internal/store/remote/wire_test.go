package remote

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// gen draws seeded random wire values. With mixEmpty set it also draws
// empty non-nil slices, which gob (and the codec) deliver as nil, and empty
// maps, which both deliver as empty; without it every empty collection is
// nil, so a round trip must give back exactly its input.
type gen struct {
	*rand.Rand
	mixEmpty bool
}

func (g *gen) str() string {
	return []string{"", "p1", "alice", "rat", "ünïcode", "a\x00b"}[g.Intn(6)]
}

func (g *gen) int64() int64 {
	return []int64{0, 1, -1, math.MaxInt64, math.MinInt64, g.Int63(), -g.Int63()}[g.Intn(7)]
}

func (g *gen) epoch() core.Epoch { return core.Epoch(g.int64()) }

func (g *gen) empty() bool { return g.mixEmpty && g.Intn(2) == 0 }

func (g *gen) value() core.Value {
	switch g.Intn(5) {
	case 0:
		return core.Null()
	case 1:
		return core.S(g.str())
	case 2:
		return core.I(g.int64())
	case 3:
		return core.F([]float64{0, -1.5, math.Inf(1), math.MaxFloat64}[g.Intn(4)])
	default:
		return core.B(g.Intn(2) == 0)
	}
}

func (g *gen) tuple() core.Tuple {
	n := g.Intn(4)
	if n == 0 {
		if g.empty() {
			return core.Tuple{}
		}
		return nil
	}
	t := make(core.Tuple, n)
	for i := range t {
		t[i] = g.value()
	}
	return t
}

func (g *gen) id() core.TxnID {
	return core.TxnID{Origin: core.PeerID(g.str()), Seq: uint64(g.int64())}
}

func (g *gen) ids() []core.TxnID {
	n := g.Intn(4)
	if n == 0 {
		if g.empty() {
			return []core.TxnID{}
		}
		return nil
	}
	out := make([]core.TxnID, n)
	for i := range out {
		out[i] = g.id()
	}
	return out
}

func (g *gen) txn() *core.Transaction {
	x := &core.Transaction{ID: g.id(), Epoch: g.epoch(), Order: uint64(g.int64())}
	if n := g.Intn(4); n > 0 {
		for range n {
			u := core.Update{Op: core.Op(1 + g.Intn(3)), Rel: g.str(), Origin: core.PeerID(g.str()), Tuple: g.tuple()}
			if g.Intn(2) == 0 {
				u.New = g.tuple()
			}
			x.Updates = append(x.Updates, u)
		}
	} else if g.empty() {
		x.Updates = []core.Update{}
	}
	return x
}

func (g *gen) txns() []store.PublishedTxn {
	out := make([]store.PublishedTxn, g.Intn(4))
	for i := range out {
		out[i] = store.PublishedTxn{Txn: g.txn(), Antecedents: g.ids()}
	}
	return out
}

func (g *gen) reconciliation() *reconciliation {
	rec := &reconciliation{Recno: int(g.int64()), FromEpoch: g.epoch(), ToEpoch: g.epoch()}
	if n := g.Intn(4); n > 0 {
		for range n {
			c := &core.Candidate{Priority: int(g.int64())}
			if g.Intn(4) > 0 {
				c.Txn = g.txn()
			}
			for range g.Intn(4) {
				c.Ext = append(c.Ext, g.txn())
			}
			if c.Ext == nil && g.empty() {
				c.Ext = []*core.Transaction{}
			}
			rec.Candidates = append(rec.Candidates, c)
		}
	} else if g.empty() {
		rec.Candidates = []*core.Candidate{}
	}
	return rec
}

func (g *gen) batches() []store.DecisionBatch {
	n := g.Intn(4)
	if n == 0 {
		if g.empty() {
			return []store.DecisionBatch{}
		}
		return nil
	}
	out := make([]store.DecisionBatch, n)
	for i := range out {
		out[i] = store.DecisionBatch{Peer: core.PeerID(g.str()), Recno: int(g.int64()), Accepted: g.ids(), Rejected: g.ids()}
	}
	return out
}

func (g *gen) decisions() map[core.TxnID]core.RestoredDecision {
	n := g.Intn(4)
	if n == 0 {
		if g.empty() {
			return map[core.TxnID]core.RestoredDecision{}
		}
		return nil
	}
	out := make(map[core.TxnID]core.RestoredDecision, n)
	for range n {
		out[g.id()] = core.RestoredDecision{Decision: core.Decision(g.Intn(4)), Seq: g.int64()}
	}
	return out
}

// bytes draws an opaque payload; a codec's rest is nil when empty.
func (g *gen) bytes(b []byte) []byte {
	if g.Intn(3) == 0 {
		if g.empty() {
			return []byte{}
		}
		return nil
	}
	return b
}

// wireCase is one body type, erased so that the tests and the fuzz target
// can walk every op in one table.
type wireCase struct {
	name   string
	random func(g *gen) any
	decode func(b []byte) (any, error)
	encode func(v any) []byte
}

func caseOf[T any, P wireBody[T]](name string, random func(g *gen) *T) wireCase {
	return wireCase{
		name:   name,
		random: func(g *gen) any { return random(g) },
		decode: func(b []byte) (any, error) {
			var v T
			return &v, P(&v).readWire(b)
		},
		encode: func(v any) []byte { return P(v.(*T)).appendWire(nil) },
	}
}

// wireCases covers every args and reply type of the 12 ops. Its order is
// FuzzDecodeWireBody's op byte: append, never reorder.
var wireCases = []wireCase{
	caseOf("registerArgs", func(g *gen) *registerArgs {
		return &registerArgs{Peer: core.PeerID(g.str()), Policy: g.str()}
	}),
	caseOf("publishArgs", func(g *gen) *publishArgs {
		return &publishArgs{Peer: core.PeerID(g.str()), Key: store.IdempotencyKey(g.str()),
			Payload: g.bytes(store.AppendPublishedTxns(nil, g.txns()))}
	}),
	caseOf("peerArgs", func(g *gen) *peerArgs {
		return &peerArgs{Peer: core.PeerID(g.str()), Key: store.IdempotencyKey(g.str())}
	}),
	caseOf("decideBatchArgs", func(g *gen) *decideBatchArgs {
		return &decideBatchArgs{Batches: g.batches(), Key: store.IdempotencyKey(g.str())}
	}),
	caseOf("takeSnapshotArgs", func(g *gen) *takeSnapshotArgs {
		return &takeSnapshotArgs{Key: store.IdempotencyKey(g.str())}
	}),
	caseOf("replayFromArgs", func(g *gen) *replayFromArgs {
		return &replayFromArgs{Peer: core.PeerID(g.str()), From: g.epoch(), AfterSeq: g.int64()}
	}),
	caseOf("compactArgs", func(g *gen) *compactArgs {
		return &compactArgs{Epoch: g.epoch(), Key: store.IdempotencyKey(g.str())}
	}),
	caseOf("watchArgs", func(g *gen) *watchArgs {
		return &watchArgs{From: g.epoch(), WaitNanos: g.int64()}
	}),
	caseOf("none", func(*gen) *none { return &none{} }),
	caseOf("epochReply", func(g *gen) *epochReply { return &epochReply{Epoch: g.epoch()} }),
	caseOf("recnoReply", func(g *gen) *recnoReply { return &recnoReply{Recno: int(g.int64())} }),
	caseOf("effTrustReply", func(g *gen) *effTrustReply { return &effTrustReply{Policy: g.str()} }),
	caseOf("replayReply", func(g *gen) *replayReply {
		return &replayReply{Log: g.bytes(store.AppendPublishedTxns(nil, g.txns())), Decisions: g.decisions()}
	}),
	caseOf("snapshotReply", func(g *gen) *snapshotReply {
		return &snapshotReply{Snapshot: g.bytes([]byte{1, 0, 0, 2, 1, 0})}
	}),
	caseOf("watchReply", func(g *gen) *watchReply { return &watchReply{To: g.epoch()} }),
	caseOf("reconciliation", (*gen).reconciliation),
}

// sameWire reports whether a and b carry the same exported data: it is
// reflect.DeepEqual without the unexported caches a decoder fills
// (Update.enc, Transaction.encDone), which no wire body carries. nil and
// empty collections still differ. core.Value, whose fields are all
// unexported, compares with ==.
func sameWire(a, b any) bool { return sameValue(reflect.ValueOf(a), reflect.ValueOf(b)) }

var valueType = reflect.TypeFor[core.Value]()

func sameValue(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if bv := b.MapIndex(it.Key()); !bv.IsValid() || !sameValue(it.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		if a.Type() == valueType {
			return a.Interface() == b.Interface()
		}
		for i := range a.NumField() {
			if a.Type().Field(i).IsExported() && !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// roundTrip checks one value of case c: it decodes to exactly what was
// encoded, and neither a padded nor a truncated body decodes to it. A body
// whose rest belongs to another codec takes a trailing byte into that
// rest; no body may drop one silently.
func roundTrip(c wireCase, in any) error {
	b := c.encode(in)
	out, err := c.decode(b)
	if err != nil {
		return fmt.Errorf("%s: decode %x: %v", c.name, b, err)
	}
	if !sameWire(in, out) {
		return fmt.Errorf("%s round trip:\n in %#v\nout %#v", c.name, in, out)
	}
	if out, err := c.decode(append(b, 0)); err == nil && sameWire(in, out) {
		return fmt.Errorf("%s: a trailing byte was ignored", c.name)
	}
	if len(b) > 0 {
		if out, err := c.decode(b[:len(b)-1]); err == nil && sameWire(in, out) {
			return fmt.Errorf("%s: a truncated body decoded to the original", c.name)
		}
	}
	return nil
}

// TestWireRoundTrip: every body decodes to exactly what was encoded, over
// seeded random values — NULLs, every value kind, nil slices, extreme
// epochs, recnos, priorities and seqs, multi-update transactions with New
// tuples, extension chains and decision maps — and neither a truncated nor
// a padded body decodes to the original.
func TestWireRoundTrip(t *testing.T) {
	g := &gen{Rand: rand.New(rand.NewSource(1))}
	for _, c := range wireCases {
		for i := 0; i < 200; i++ {
			if err := roundTrip(c, c.random(g)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRoundTripCatchesDroppedByte: the checks in roundTrip have teeth. A
// reconciliation decoder that drops a trailing byte instead of failing
// gives back a value whose transactions carry seeded encoding caches the
// input lacks, so a comparison that saw the caches would never match it
// and the trailing-byte check would pass whatever the decoder did.
func TestRoundTripCatchesDroppedByte(t *testing.T) {
	c := wireCases[len(wireCases)-1]
	if c.name != "reconciliation" {
		t.Fatalf("last wire case is %s", c.name)
	}
	decode := c.decode
	c.decode = func(b []byte) (any, error) {
		v, err := decode(b)
		if err != nil && len(b) > 0 {
			return decode(b[:len(b)-1])
		}
		return v, err
	}
	g := &gen{Rand: rand.New(rand.NewSource(4))}
	for i := 0; i < 50; i++ {
		in := g.reconciliation()
		if in.Candidates == nil {
			continue
		}
		if err := roundTrip(c, in); err == nil || !strings.Contains(err.Error(), "trailing byte") {
			t.Fatalf("a decoder that drops a trailing byte passed: %v", err)
		}
		return
	}
	t.Fatal("no reconciliation with candidates drawn")
}

// TestWireMatchesGob is the differential against the format it replaced:
// for the same random values, empty non-nil collections included, a gob
// round trip and a codec round trip give the same value, so the engine sees
// the inputs it saw before.
func TestWireMatchesGob(t *testing.T) {
	g := &gen{Rand: rand.New(rand.NewSource(2)), mixEmpty: true}
	for _, c := range wireCases {
		for i := 0; i < 200; i++ {
			in := c.random(g)
			viaWire, err := c.decode(c.encode(in))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(in); err != nil {
				t.Fatalf("%s: gob encode: %v", c.name, err)
			}
			viaGob := reflect.New(reflect.TypeOf(in).Elem()).Interface()
			if err := gob.NewDecoder(&buf).Decode(viaGob); err != nil {
				t.Fatalf("%s: gob decode: %v", c.name, err)
			}
			if !sameWire(viaGob, viaWire) {
				t.Fatalf("%s: gob and the codec disagree:\n gob %#v\nwire %#v", c.name, viaGob, viaWire)
			}
		}
	}
}

// TestReplayReplyDeterministic: the decision map is written in TxnID order,
// so equal replies encode to equal bytes whatever the map's iteration order.
func TestReplayReplyDeterministic(t *testing.T) {
	d := map[core.TxnID]core.RestoredDecision{}
	for i := range 50 {
		d[core.TxnID{Origin: core.PeerID([]string{"b", "a", "c"}[i%3]), Seq: uint64(i)}] = core.RestoredDecision{Decision: core.DecisionAccept, Seq: int64(i)}
	}
	first := (&replayReply{Decisions: d}).appendWire(nil)
	for range 20 {
		if again := (&replayReply{Decisions: d}).appendWire(nil); !bytes.Equal(first, again) {
			t.Fatal("replay reply encoding depends on map order")
		}
	}
}

// FuzzDecodeWireBody feeds arbitrary bytes to every body decoder; the first
// input byte picks the body type (wireCases order). A decoder must never
// panic, and anything it accepts must be canonical: re-encoding and
// decoding again reproduces the value.
func FuzzDecodeWireBody(f *testing.F) {
	g := &gen{Rand: rand.New(rand.NewSource(3))}
	for i, c := range wireCases {
		f.Add(append([]byte{byte(i)}, c.encode(c.random(g))...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := wireCases[int(data[0])%len(wireCases)]
		v, err := c.decode(data[1:])
		if err != nil {
			return
		}
		again, err := c.decode(c.encode(v))
		if err != nil {
			t.Fatalf("%s: re-encoded body failed to decode: %v\ninput: %x", c.name, err, data)
		}
		if !reflect.DeepEqual(v, again) {
			t.Fatalf("%s: decode not canonical:\nfirst:  %#v\nsecond: %#v\ninput: %x", c.name, v, again, data)
		}
	})
}
