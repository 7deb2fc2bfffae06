// Package pastry implements a Pastry-style structured overlay: 160-bit SHA-1
// identifiers, per-node leaf sets and prefix routing tables, and greedy
// key-based routing to the key's owner (its successor on the identifier
// ring). It stands in for FreePastry, which the paper's distributed update
// store is built on (§5.2.2).
//
// Membership is managed by a Ring builder with global knowledge: the paper
// explicitly assumes successful message delivery and defers fault tolerance
// to future work, so nodes join through the builder and tables are rebuilt
// from the full membership rather than by gossip. Message-level behaviour —
// hop-by-hop forwarding with per-message latency and traffic accounting —
// is preserved, which is what the evaluation measures.
package pastry

import (
	"crypto/sha1"
	"encoding/hex"
)

// IDBytes is the identifier width in bytes (160 bits, as in Pastry).
const IDBytes = 20

// IDDigits is the number of hexadecimal digits in an ID; routing tables
// have one row per digit.
const IDDigits = 2 * IDBytes

// ID is a 160-bit identifier for nodes and keys.
type ID [IDBytes]byte

// Key hashes an application key string to its identifier.
func Key(s string) ID { return sha1.Sum([]byte(s)) }

// NodeID hashes a node address to its identifier.
func NodeID(addr string) ID { return sha1.Sum([]byte("node:" + addr)) }

// String renders the ID as hex.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Less orders IDs numerically (big-endian).
func (id ID) Less(other ID) bool {
	for i := 0; i < IDBytes; i++ {
		if id[i] != other[i] {
			return id[i] < other[i]
		}
	}
	return false
}

// Digit returns the i-th hexadecimal digit (0 = most significant).
func (id ID) Digit(i int) int {
	b := id[i/2]
	if i%2 == 0 {
		return int(b >> 4)
	}
	return int(b & 0x0f)
}

// SharedPrefix returns the number of leading hexadecimal digits the two IDs
// share.
func SharedPrefix(a, b ID) int {
	for i := 0; i < IDDigits; i++ {
		if a.Digit(i) != b.Digit(i) {
			return i
		}
	}
	return IDDigits
}

// distance returns (to - from) mod 2^160: the clockwise walk from `from` to
// `to` on the identifier ring. The owner of a key k is the node minimizing
// distance(k, node) — k's successor.
func distance(from, to ID) ID {
	var out ID
	borrow := 0
	for i := IDBytes - 1; i >= 0; i-- {
		d := int(to[i]) - int(from[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}
