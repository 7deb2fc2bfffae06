package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intTree() *Tree[int, string] {
	return New[int, string](func(a, b int) bool { return a < b })
}

func TestEmptyTree(t *testing.T) {
	tr := intTree()
	if tr.Len() != 0 {
		t.Error("empty tree should have Len 0")
	}
	if _, ok := tr.Get(1); ok {
		t.Error("Get on empty tree")
	}
	if tr.Delete(1) {
		t.Error("Delete on empty tree")
	}
	if _, _, ok := tr.Min(); ok {
		t.Error("Min on empty tree")
	}
	if _, _, ok := tr.Max(); ok {
		t.Error("Max on empty tree")
	}
	tr.Ascend(func(int, string) bool { t.Error("Ascend visited something"); return true })
}

func TestPutGetDelete(t *testing.T) {
	tr := intTree()
	if tr.Put(1, "a") {
		t.Error("first Put should not replace")
	}
	if !tr.Put(1, "b") {
		t.Error("second Put should replace")
	}
	if v, ok := tr.Get(1); !ok || v != "b" {
		t.Errorf("Get = %q %v", v, ok)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	if !tr.Delete(1) || tr.Delete(1) {
		t.Error("Delete semantics broken")
	}
	if tr.Len() != 0 {
		t.Errorf("Len after delete = %d", tr.Len())
	}
}

func TestLargeSequential(t *testing.T) {
	tr := intTree()
	const n = 10_000
	for i := 0; i < n; i++ {
		tr.Put(i, "v")
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		if !tr.Has(i) {
			t.Fatalf("missing key %d", i)
		}
	}
	k, _, _ := tr.Min()
	if k != 0 {
		t.Errorf("Min = %d", k)
	}
	k, _, _ = tr.Max()
	if k != n-1 {
		t.Errorf("Max = %d", k)
	}
	// Delete every other key.
	for i := 0; i < n; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		if tr.Has(i) != (i%2 == 1) {
			t.Fatalf("key %d presence wrong", i)
		}
	}
}

func TestAscendOrder(t *testing.T) {
	tr := intTree()
	perm := rand.New(rand.NewSource(1)).Perm(1000)
	for _, k := range perm {
		tr.Put(k, "")
	}
	prev := -1
	count := 0
	tr.Ascend(func(k int, _ string) bool {
		if k <= prev {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		prev = k
		count++
		return true
	})
	if count != 1000 {
		t.Errorf("visited %d", count)
	}
	// Early stop.
	count = 0
	tr.Ascend(func(k int, _ string) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop visited %d", count)
	}
}

// TestAgainstReference drives random operations against a map+sort oracle.
func TestAgainstReference(t *testing.T) {
	tr := intTree()
	ref := map[int]string{}
	r := rand.New(rand.NewSource(99))
	const ops = 50_000
	for i := 0; i < ops; i++ {
		k := r.Intn(2000)
		switch r.Intn(3) {
		case 0:
			v := string(rune('a' + r.Intn(26)))
			gotReplaced := tr.Put(k, v)
			_, wantReplaced := ref[k]
			if gotReplaced != wantReplaced {
				t.Fatalf("op %d: Put(%d) replaced=%v want %v", i, k, gotReplaced, wantReplaced)
			}
			ref[k] = v
		case 1:
			got := tr.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v want %v", i, k, got, want)
			}
			delete(ref, k)
		default:
			got, gotOK := tr.Get(k)
			want, wantOK := ref[k]
			if gotOK != wantOK || got != want {
				t.Fatalf("op %d: Get(%d) = %q/%v want %q/%v", i, k, got, gotOK, want, wantOK)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: Len %d != ref %d", i, tr.Len(), len(ref))
		}
	}
	// Final full-order check.
	keys := make([]int, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	i := 0
	tr.Ascend(func(k int, v string) bool {
		if i >= len(keys) || k != keys[i] || v != ref[k] {
			t.Fatalf("iteration mismatch at %d: %d/%q", i, k, v)
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("iterated %d of %d", i, len(keys))
	}
}

// TestQuickInsertDelete: after inserting a set and deleting a subset, the
// remaining membership is exact.
func TestQuickInsertDelete(t *testing.T) {
	prop := func(ins []uint16, del []uint16) bool {
		tr := intTree()
		present := map[int]bool{}
		for _, k := range ins {
			tr.Put(int(k), "")
			present[int(k)] = true
		}
		for _, k := range del {
			got := tr.Delete(int(k))
			if got != present[int(k)] {
				return false
			}
			delete(present, int(k))
		}
		if tr.Len() != len(present) {
			return false
		}
		for k := range present {
			if !tr.Has(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New[string, int](func(a, b string) bool { return a < b })
	words := []string{"mouse", "rat", "dog", "cat", "zebra", "ant"}
	for i, w := range words {
		tr.Put(w, i)
	}
	k, _, _ := tr.Min()
	if k != "ant" {
		t.Errorf("Min = %q", k)
	}
	k, _, _ = tr.Max()
	if k != "zebra" {
		t.Errorf("Max = %q", k)
	}
}
