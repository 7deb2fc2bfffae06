// Package spread provides Map, a hash map whose growth comes in small
// steps.
//
// A Go map grows in steps: when its size crosses a fixed threshold it
// allocates a table twice the size (or two tables, for a full one) at once.
// Maps that gain the same number of entries at the same time — the tables
// and engines of a fleet's tenants, which all take the same rounds — cross
// each threshold together, and a process holding thousands of them
// allocates in bursts of tens of megabytes, a few rounds apart. Map spreads
// its entries over 16 Go maps by a hash seeded per Map: its steps are a
// sixteenth of the size and fall at sizes of its own, so the growth of many
// maps adds up to a steady rate.
package spread

import (
	"hash/maphash"
	"iter"
	"maps"
)

// partCount is the number of Go maps a Map spreads its entries over.
const partCount = 16

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
	return &m.parts[h%partCount]
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	v, ok := (*m.part(k))[k]
	return v, ok
}

// GetBytes is m.Get(string(k)) without copying k.
func GetBytes[V any](m *Map[string, V], k []byte) (V, bool) {
	v, ok := m.parts[maphash.Bytes(m.seed, k)%partCount][string(k)]
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
