// Package spread provides Map, a hash map whose growth comes in small
// steps.
//
// A Go map grows in steps: when its size crosses a fixed threshold it
// allocates a table twice the size (or two tables, for a full one) at once.
// Maps that gain the same number of entries at the same time — the tables
// and engines of a fleet's tenants, which all take the same rounds — cross
// each threshold together, and a process holding thousands of them
// allocates in bursts of tens of megabytes, a few rounds apart. Map spreads
// its entries over 16 Go maps by a hash seeded per Map, and the 16 take
// unequal shares (stagger): each crosses a threshold at a total size of its
// own, so over every doubling of the total the 16 parts grow one at a
// time, each about a sixteenth of the size, and the growth of many maps
// adds up to a steady rate.
package spread

import (
	"hash/maphash"
	"iter"
	"maps"
	"math"
)

// partCount is the number of Go maps a Map spreads its entries over.
const partCount = 16

// staggerBits is how many of a hash's top bits pick its part.
const staggerBits = 12

// A stagger splits 64-bit hashes into n parts whose shares rise
// geometrically, by 2^(1/n) from one part to the next: the last part takes
// twice the share of the first. A container that keeps each part in a map
// of its own and fills it with evenly hashed keys sees part i cross a map
// growth threshold T at a total size T / share(i), so the n parts cross
// every threshold at n totals spread evenly over a doubling, where an even
// split would cross it at one.
type stagger struct{ of [1 << staggerBits]uint8 }

// newStagger returns the stagger of n parts; n is 1 to 256.
func newStagger(n int) *stagger {
	// Parts 0..i take the first 2^((i+1)/n) - 1 of the hashes.
	var s stagger
	from := 0
	for i := range n {
		to := int(math.Round((math.Pow(2, float64(i+1)/float64(n)) - 1) * (1 << staggerBits)))
		for b := from; b < to; b++ {
			s.of[b] = uint8(i)
		}
		from = to
	}
	return &s
}

// part returns the part h falls in. It reads h's top bits, so h must be
// mixed into them (maphash is).
func (s *stagger) part(h uint64) int { return int(s.of[h>>(64-staggerBits)]) }

// split divides a Map's hashes over its Go maps.
var split = newStagger(partCount)

// Map is a hash map from K to V. The zero value is not usable; make one
// with Make. Like a Go map, it is not safe for concurrent writes.
type Map[K comparable, V any] struct {
	seed  maphash.Seed
	parts [partCount]map[K]V
}

// Make returns an empty map.
func Make[K comparable, V any]() Map[K, V] { return Map[K, V]{seed: maphash.MakeSeed()} }

func (m *Map[K, V]) part(k K) *map[K]V {
	var h uint64
	if s, ok := any(k).(string); ok {
		h = maphash.String(m.seed, s) // the hash GetBytes computes
	} else {
		h = maphash.Comparable(m.seed, k)
	}
	return &m.parts[split.part(h)]
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	v, ok := (*m.part(k))[k]
	return v, ok
}

// GetBytes is m.Get(string(k)) without copying k.
func GetBytes[V any](m *Map[string, V], k []byte) (V, bool) {
	v, ok := m.parts[split.part(maphash.Bytes(m.seed, k))][string(k)]
	return v, ok
}

// Set stores v under k.
func (m *Map[K, V]) Set(k K, v V) {
	p := m.part(k)
	if *p == nil {
		*p = make(map[K]V)
	}
	(*p)[k] = v
}

// Swap stores v under k and returns the value it replaces, if any.
func (m *Map[K, V]) Swap(k K, v V) (old V, existed bool) {
	p := m.part(k)
	if *p == nil {
		*p = make(map[K]V)
	}
	old, existed = (*p)[k]
	(*p)[k] = v
	return old, existed
}

// Delete removes the value stored under k, if any.
func (m *Map[K, V]) Delete(k K) { delete(*m.part(k), k) }

// Len returns the number of entries.
func (m *Map[K, V]) Len() int {
	n := 0
	for _, p := range m.parts {
		n += len(p)
	}
	return n
}

// All yields every entry, in no order.
func (m *Map[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for _, p := range m.parts {
			for k, v := range p {
				if !yield(k, v) {
					return
				}
			}
		}
	}
}

// Clone returns a copy of m; the values are copied as by assignment.
func (m *Map[K, V]) Clone() Map[K, V] {
	c := Map[K, V]{seed: m.seed}
	for i, p := range m.parts {
		c.parts[i] = maps.Clone(p)
	}
	return c
}
