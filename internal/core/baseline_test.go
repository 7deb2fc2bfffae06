package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestGeneralEngineOnInsertOnly: on insert-only workloads with equal trust
// (the §4.1 append-only setting) the general engine applies every key that
// exactly one value was inserted for, and defers every key that two
// different values were, so no contended key materialises.
func TestGeneralEngineOnInsertOnly(t *testing.T) {
	s := proteinSchema(t)
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		var batch []*Transaction
		contended := map[string]bool{}
		seenKey := map[string]Tuple{}
		for i := 0; i < 30; i++ {
			org := []string{"rat", "mouse"}[r.Intn(2)]
			prot := fmt.Sprintf("prot%d", r.Intn(10))
			fn := fmt.Sprintf("f%d", r.Intn(3))
			tu := Strs(org, prot, fn)
			keyEnc := Strs(org, prot).Encode()
			if prev, ok := seenKey[keyEnc]; ok && !prev.Equal(tu) {
				contended[keyEnc] = true
			}
			seenKey[keyEnc] = tu
			batch = append(batch, NewTransaction(
				TxnID{Origin: PeerID(fmt.Sprintf("p%d", i)), Seq: 0},
				Insert("F", tu, "x")))
		}

		gen := NewEngine("q", s, TrustAll(1))
		graph := NewAntecedentGraph(s)
		var cands []*Candidate
		for _, x := range batch {
			if err := graph.Add(x); err != nil {
				t.Fatal(err)
			}
			ext, err := graph.Extension(x.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			cands = append(cands, &Candidate{Txn: x, Priority: 1, Ext: ext})
		}
		if _, err := gen.Reconcile(cands); err != nil {
			t.Fatal(err)
		}

		rel := s.MustRelation("F")
		for keyEnc, tu := range seenKey {
			if contended[keyEnc] {
				continue
			}
			key := rel.KeyOf(tu)
			got, ok := gen.Instance().Lookup("F", key)
			if !ok || !got.Equal(tu) {
				t.Fatalf("seed %d: uncontended key %v holds %v(%v), want %v", seed, key, got, ok, tu)
			}
		}
		for keyEnc := range contended {
			key, _ := DecodeTuple(keyEnc)
			if _, ok := gen.Instance().Lookup("F", key); ok {
				t.Fatalf("seed %d: general engine applied contended key %v", seed, key)
			}
		}
	}
}
