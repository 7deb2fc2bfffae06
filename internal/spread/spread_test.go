package spread

import (
	"maps"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

type pair struct{ rel, enc string }

// TestMapAgainstGoMap runs random Set/Swap/Delete over small key spaces
// against a Go map and checks Get, GetBytes, Len, All and Clone after every
// step.
func TestMapAgainstGoMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Make[string, int]()
	p := Make[pair, int]()
	model := map[string]int{}
	for step := 0; step < 4000; step++ {
		k := "k" + strconv.Itoa(rng.Intn(300))
		pk := pair{"r" + strconv.Itoa(len(k)%3), k}
		switch rng.Intn(4) {
		case 0, 1:
			m.Set(k, step)
			p.Set(pk, step)
			model[k] = step
		case 2:
			old, existed := m.Swap(k, step)
			pold, pexisted := p.Swap(pk, step)
			mold, mexisted := model[k]
			if old != mold || existed != mexisted || pold != mold || pexisted != mexisted {
				t.Fatalf("step %d: Swap(%q) = %d, %v; %d, %v; model %d, %v", step, k, old, existed, pold, pexisted, mold, mexisted)
			}
			model[k] = step
		case 3:
			m.Delete(k)
			p.Delete(pk)
			delete(model, k)
		}
		v, ok := m.Get(k)
		bv, bok := GetBytes(&m, []byte(k))
		pv, pok := p.Get(pk)
		mv, mok := model[k]
		if v != mv || ok != mok || bv != mv || bok != mok || pv != mv || pok != mok {
			t.Fatalf("step %d: Get(%q) = %d, %v; GetBytes %d, %v; pair %d, %v; model %d, %v", step, k, v, ok, bv, bok, pv, pok, mv, mok)
		}
		if m.Len() != len(model) || p.Len() != len(model) {
			t.Fatalf("step %d: Len %d, pair %d, model %d", step, m.Len(), p.Len(), len(model))
		}
		if step%500 == 0 {
			if got := maps.Collect(m.All()); !maps.Equal(got, model) {
				t.Fatalf("step %d: All yields %v, model %v", step, got, model)
			}
			c := m.Clone()
			c.Set("only-in-clone", 1)
			if got := maps.Collect(m.All()); !maps.Equal(got, model) {
				t.Fatalf("step %d: writing a clone changed the map", step)
			}
			if c.Len() != len(model)+1 {
				t.Fatalf("step %d: clone has %d entries, want %d", step, c.Len(), len(model)+1)
			}
			for k, v := range model {
				if cv, ok := c.Get(k); !ok || cv != v {
					t.Fatalf("step %d: clone lost %q", step, k)
				}
			}
		}
	}
}

// TestAllStopsEarly checks that All honours a break.
func TestAllStopsEarly(t *testing.T) {
	m := Make[int, int]()
	for i := range 100 {
		m.Set(i, i)
	}
	n := 0
	for range m.All() {
		if n++; n == 7 {
			break
		}
	}
	if n != 7 {
		t.Fatalf("visited %d entries, want 7", n)
	}
}

// TestMapsGrowApart is what the package is for: maps that receive the
// same keys in the same order spread them differently, so no size is one
// at which every map grows its parts at once.
func TestMapsGrowApart(t *testing.T) {
	const n, keys = 8, 2000
	sizes := make([][partCount]int, n)
	for i := range sizes {
		m := Make[string, struct{}]()
		for k := range keys {
			m.Set(strconv.Itoa(k), struct{}{})
		}
		for j, p := range m.parts {
			sizes[i][j] = len(p)
		}
	}
	for i := 1; i < n; i++ {
		if sizes[i] != sizes[0] {
			return
		}
	}
	t.Fatalf("%d maps split %d keys identically: %v", n, keys, sizes[0])
}

// TestStaggerShares: part i of a Stagger takes 2^(i/n) (2^(1/n) - 1) of
// the hashes, so the shares rise by 2^(1/n) from part to part and the last
// is twice the first.
func TestStaggerShares(t *testing.T) {
	for _, n := range []int{1, 2, partCount, 32} {
		s := NewStagger(n)
		got := make([]int, n)
		for b := range 1 << staggerBits {
			got[s.Part(uint64(b)<<(64-staggerBits))]++
		}
		for i, c := range got {
			want := math.Pow(2, float64(i)/float64(n)) * (math.Pow(2, 1/float64(n)) - 1) * (1 << staggerBits)
			if math.Abs(float64(c)-want) > 1 {
				t.Fatalf("n=%d: part %d takes %d of %d hashes, want %.1f", n, i, c, 1<<staggerBits, want)
			}
		}
	}
}

// TestPartsCrossApart is what the stagger is for: a map's parts, filled
// together, do not reach a size together. Each part's count after many
// keys follows its share (within six standard deviations of the binomial
// count; an even split misses the largest shares by more than that), so
// part i reaches any size at a total of its own, and the totals of the 16
// spread over a doubling.
func TestPartsCrossApart(t *testing.T) {
	const keys = 1 << 16
	m := Make[int, struct{}]()
	for k := range keys {
		m.Set(k, struct{}{})
	}
	for i, p := range m.parts {
		want := keys * math.Pow(2, float64(i)/partCount) * (math.Pow(2, 1.0/partCount) - 1)
		if got := float64(len(p)); math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Fatalf("part %d holds %.0f of %d keys, want %.0f ± %.0f", i, got, keys, want, 6*math.Sqrt(want))
		}
	}
}

// TestLookupAllocations: reads, and writes to a present key, allocate
// nothing.
func TestLookupAllocations(t *testing.T) {
	m := Make[string, int]()
	p := Make[pair, int]()
	for i := range 100 {
		m.Set(strconv.Itoa(i), i)
		p.Set(pair{"r", strconv.Itoa(i)}, i)
	}
	key, buf, pk := "42", []byte("42"), pair{"r", "42"}
	if n := testing.AllocsPerRun(100, func() {
		m.Get(key)
		GetBytes(&m, buf)
		m.Set(key, 1)
		p.Get(pk)
		p.Set(pk, 1)
	}); n != 0 {
		t.Fatalf("%.1f allocations per lookup round, want 0", n)
	}
}
