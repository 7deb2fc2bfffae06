// Package dht is the fleet's placement layer: a consistent-hash ring over
// 160-bit SHA-1 identifiers that maps group IDs to store nodes, with no
// networking attached. The Pastry overlay of the paper's distributed update
// store (§5.2.2), which shares the ownership rule but routes messages over
// the simulated fabric, is internal/exp/pastry.
package dht

import "crypto/sha1"

// IDBytes is the identifier width in bytes (160 bits).
const IDBytes = 20

// ID is a 160-bit point on the placement ring.
type ID [IDBytes]byte

// Key hashes a string to its identifier.
func Key(s string) ID { return sha1.Sum([]byte(s)) }

// Less orders IDs numerically (big-endian).
func (id ID) Less(other ID) bool {
	for i := 0; i < IDBytes; i++ {
		if id[i] != other[i] {
			return id[i] < other[i]
		}
	}
	return false
}
