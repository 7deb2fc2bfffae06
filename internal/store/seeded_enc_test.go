package store

import (
	"bytes"
	"reflect"
	"testing"

	"orchestra/internal/core"
)

// cachedEnc reads the encoding cache core keeps unexported on an update
// (Update.enc). reflect may read an unexported field; it may not set one.
func cachedEnc(t *testing.T, u *core.Update) (tuple, newt, keyT, keyN string) {
	t.Helper()
	e := reflect.ValueOf(u).Elem().FieldByName("enc")
	if !e.IsValid() || e.IsNil() {
		t.Fatalf("%v has no encoding cache", u)
	}
	e = e.Elem()
	return e.FieldByName("tuple").String(), e.FieldByName("newt").String(),
		e.FieldByName("keyT").String(), e.FieldByName("keyN").String()
}

// TestDecodeSeedsEncodingCaches: every codec path that reads transactions
// — a published batch, a snapshot's residue, a reconciliation's candidates
// and extensions — leaves each update holding the encodings it read, and
// after PrecomputeEncodings every cached encoding equals a fresh Encode()
// or KeyEnc(), under a key that prefixes the attributes and one that does
// not. The decoded value owns its bytes: overwriting the payload it was
// decoded from changes nothing.
func TestDecodeSeedsEncodingCaches(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		decode  func(payload []byte) (any, []*core.Transaction, error)
	}{
		{"published batch", AppendPublishedTxns(nil, fuzzSeedBatch()), func(b []byte) (any, []*core.Transaction, error) {
			batch, err := DecodePublishedTxns(b)
			var xs []*core.Transaction
			for _, p := range batch {
				xs = append(xs, p.Txn)
			}
			return batch, xs, err
		}},
		{"snapshot residue", AppendSnapshot(nil, testSnapshot()), func(b []byte) (any, []*core.Transaction, error) {
			snap, err := DecodeSnapshot(b)
			if err != nil {
				return nil, nil, err
			}
			var xs []*core.Transaction
			for _, p := range snap.Residue {
				xs = append(xs, p.Txn)
			}
			return snap, xs, nil
		}},
		{"reconciliation", AppendReconciliation(nil, fuzzSeedReconciliation()), func(b []byte) (any, []*core.Transaction, error) {
			rec, err := DecodeReconciliation(b)
			if err != nil {
				return nil, nil, err
			}
			return rec, reconciliationTxns(rec), nil
		}},
	}
	attrs := []core.AttrDef{{Name: "organism"}, {Name: "protein"}, {Name: "function"}}
	for _, key := range [][]int{{0, 1}, {2, 0}} {
		schema, err := core.NewSchema(&core.Relation{Name: "F", Attrs: attrs, Key: key})
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := schema.Relation("F")
		for _, c := range cases {
			name, decode, payload := c.name, c.decode, bytes.Clone(c.payload)
			want, wantTxns, err := decode(bytes.Clone(payload))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, txns, err := decode(payload)
			if err != nil || len(txns) == 0 {
				t.Fatalf("%s: decoded %d transactions, %v", name, len(txns), err)
			}
			for i, x := range txns {
				for j := range x.Updates {
					u := &x.Updates[j]
					if tuple, newt, keyT, _ := cachedEnc(t, u); tuple != u.Tuple.Encode() || newt != u.New.Encode() || keyT != "" {
						t.Errorf("%s: %v decoded with cache (%q, %q, %q)", name, u, tuple, newt, keyT)
					}
				}
				x.PrecomputeEncodings(schema)
				wantTxns[i].PrecomputeEncodings(schema)
				for j := range x.Updates {
					u := &x.Updates[j]
					tuple, newt, keyT, keyN := cachedEnc(t, u)
					wantKeyN := ""
					if u.New != nil {
						wantKeyN = rel.KeyEnc(u.New)
					}
					if tuple != u.Tuple.Encode() || newt != u.New.Encode() || keyT != rel.KeyEnc(u.Tuple) || keyN != wantKeyN {
						t.Errorf("key %v, %s: %v cached (%q, %q, %q, %q)", key, name, u, tuple, newt, keyT, keyN)
					}
				}
			}
			for i := range payload {
				payload[i] = 0xff
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("key %v, %s: overwriting the payload changed what was decoded from it", key, name)
			}
		}
	}
}
