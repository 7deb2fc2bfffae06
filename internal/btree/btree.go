// Package btree implements an in-memory B-tree with ordered iteration,
// generic over key and value types. It backs the tables of the reldb
// relational engine used by the central update store.
//
// The tree is not safe for concurrent use; reldb serializes access.
package btree

import "sort"

// degree is the minimum number of children of an internal node (except the
// root); nodes hold between degree-1 and 2*degree-1 items.
const degree = 16

// maxItems is the maximum number of items per node.
const maxItems = 2*degree - 1

// Tree is a B-tree mapping K to V under the given ordering.
type Tree[K, V any] struct {
	less func(a, b K) bool
	root *node[K, V]
	size int
}

type item[K, V any] struct {
	key K
	val V
}

type node[K, V any] struct {
	items    []item[K, V]
	children []*node[K, V] // nil for leaves
}

// New returns an empty tree ordered by less.
func New[K, V any](less func(a, b K) bool) *Tree[K, V] {
	return &Tree[K, V]{less: less}
}

// Len returns the number of items.
func (t *Tree[K, V]) Len() int { return t.size }

// search finds the position of key in n.items: the index and whether it is
// an exact match.
func (t *Tree[K, V]) search(n *node[K, V], key K) (int, bool) {
	i := sort.Search(len(n.items), func(i int) bool { return !t.less(n.items[i].key, key) })
	if i < len(n.items) && !t.less(key, n.items[i].key) {
		return i, true
	}
	return i, false
}

// Get returns the value stored under key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	var zero V
	n := t.root
	for n != nil {
		i, eq := t.search(n, key)
		if eq {
			return n.items[i].val, true
		}
		if n.children == nil {
			return zero, false
		}
		n = n.children[i]
	}
	return zero, false
}

// Has reports whether key is present.
func (t *Tree[K, V]) Has(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// Put stores val under key, replacing any existing value. It reports
// whether a previous value was replaced.
func (t *Tree[K, V]) Put(key K, val V) bool {
	if t.root == nil {
		t.root = &node[K, V]{items: []item[K, V]{{key: key, val: val}}}
		t.size = 1
		return false
	}
	if len(t.root.items) == maxItems {
		old := t.root
		t.root = &node[K, V]{children: []*node[K, V]{old}}
		t.splitChild(t.root, 0)
	}
	replaced := t.insertNonFull(t.root, key, val)
	if !replaced {
		t.size++
	}
	return replaced
}

// splitChild splits the full child i of n around its median item.
func (t *Tree[K, V]) splitChild(n *node[K, V], i int) {
	child := n.children[i]
	mid := len(child.items) / 2
	midItem := child.items[mid]

	right := &node[K, V]{items: append([]item[K, V](nil), child.items[mid+1:]...)}
	if child.children != nil {
		right.children = append([]*node[K, V](nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.items = child.items[:mid]

	n.items = append(n.items, item[K, V]{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = midItem
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (t *Tree[K, V]) insertNonFull(n *node[K, V], key K, val V) bool {
	for {
		i, eq := t.search(n, key)
		if eq {
			n.items[i].val = val
			return true
		}
		if n.children == nil {
			n.items = append(n.items, item[K, V]{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item[K, V]{key: key, val: val}
			return false
		}
		if len(n.children[i].items) == maxItems {
			t.splitChild(n, i)
			if !t.less(key, n.items[i].key) && !t.less(n.items[i].key, key) {
				n.items[i].val = val
				return true
			}
			if t.less(n.items[i].key, key) {
				i++
			}
		}
		n = n.children[i]
	}
}

// Delete removes key and reports whether it was present.
func (t *Tree[K, V]) Delete(key K) bool {
	if t.root == nil {
		return false
	}
	deleted := t.delete(t.root, key)
	if len(t.root.items) == 0 {
		if t.root.children == nil {
			t.root = nil
		} else {
			t.root = t.root.children[0]
		}
	}
	if deleted {
		t.size--
	}
	return deleted
}

func (t *Tree[K, V]) delete(n *node[K, V], key K) bool {
	i, eq := t.search(n, key)
	if n.children == nil {
		if !eq {
			return false
		}
		n.items = append(n.items[:i], n.items[i+1:]...)
		return true
	}
	if eq {
		// Replace with predecessor from the left subtree, then delete the
		// predecessor from it.
		child := n.children[i]
		if len(child.items) >= degree {
			pred := t.max(child)
			n.items[i] = pred
			return t.delete(t.prepareChild(n, i), pred.key)
		}
		right := n.children[i+1]
		if len(right.items) >= degree {
			succ := t.min(right)
			n.items[i] = succ
			return t.delete(t.prepareChild(n, i+1), succ.key)
		}
		// Merge children around the deleted item.
		t.mergeChildren(n, i)
		return t.delete(child, key)
	}
	return t.delete(t.prepareChild(n, i), key)
}

// prepareChild ensures n.children[i] has at least degree items before
// descending, borrowing from siblings or merging.
func (t *Tree[K, V]) prepareChild(n *node[K, V], i int) *node[K, V] {
	child := n.children[i]
	if len(child.items) >= degree {
		return child
	}
	// Borrow from the left sibling.
	if i > 0 && len(n.children[i-1].items) >= degree {
		left := n.children[i-1]
		child.items = append(child.items, item[K, V]{})
		copy(child.items[1:], child.items)
		child.items[0] = n.items[i-1]
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if child.children != nil {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
		}
		return child
	}
	// Borrow from the right sibling.
	if i < len(n.children)-1 && len(n.children[i+1].items) >= degree {
		right := n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append(right.items[:0], right.items[1:]...)
		if child.children != nil {
			child.children = append(child.children, right.children[0])
			right.children = append(right.children[:0], right.children[1:]...)
		}
		return child
	}
	// Merge with a sibling.
	if i > 0 {
		t.mergeChildren(n, i-1)
		return n.children[i-1]
	}
	t.mergeChildren(n, i)
	return n.children[i]
}

// mergeChildren merges children i and i+1 around item i.
func (t *Tree[K, V]) mergeChildren(n *node[K, V], i int) {
	left, right := n.children[i], n.children[i+1]
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	if left.children != nil {
		left.children = append(left.children, right.children...)
	}
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

func (t *Tree[K, V]) min(n *node[K, V]) item[K, V] {
	for n.children != nil {
		n = n.children[0]
	}
	return n.items[0]
}

func (t *Tree[K, V]) max(n *node[K, V]) item[K, V] {
	for n.children != nil {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// Min returns the smallest key and its value.
func (t *Tree[K, V]) Min() (K, V, bool) {
	if t.root == nil || t.size == 0 {
		var k K
		var v V
		return k, v, false
	}
	it := t.min(t.root)
	return it.key, it.val, true
}

// Max returns the largest key and its value.
func (t *Tree[K, V]) Max() (K, V, bool) {
	if t.root == nil || t.size == 0 {
		var k K
		var v V
		return k, v, false
	}
	it := t.max(t.root)
	return it.key, it.val, true
}

// Ascend visits all items in ascending key order until fn returns false.
func (t *Tree[K, V]) Ascend(fn func(key K, val V) bool) {
	t.ascend(t.root, fn)
}

func (t *Tree[K, V]) ascend(n *node[K, V], fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	for i, it := range n.items {
		if n.children != nil && !t.ascend(n.children[i], fn) {
			return false
		}
		if !fn(it.key, it.val) {
			return false
		}
	}
	if n.children != nil {
		return t.ascend(n.children[len(n.children)-1], fn)
	}
	return true
}
