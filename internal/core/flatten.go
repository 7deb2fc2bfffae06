package core

import (
	"fmt"
	"sort"
	"sync"
)

// flattenChain tracks one value chain during delta composition: the value it
// started from (nil if created by an insert within the sequence), the value
// it currently holds (nil once deleted), the relation it lives in, and the
// origin of its last writer. Encodings computed while maintaining the chain
// are carried along so the emitted updates arrive with their encoding caches
// already populated.
type flattenChain struct {
	rel    *Relation
	source Tuple
	cur    Tuple
	origin PeerID

	sourceEnc    string // source.Encode()
	sourceKeyEnc string // rel.KeyEnc(source)
	curEnc       string // cur.Encode()
}

// flattenScratch holds the per-call working state of Flatten. Instances are
// pooled: Flatten runs for each candidate whose extension is more than one
// update, again when applying one whose extension lost transactions since,
// per overlapping pair FindConflicts checks, and once over the own delta
// per reconciliation, so its maps and chain arena would otherwise be a
// large transient allocation of the pipeline.
type flattenScratch struct {
	live  map[tupleKey]*flattenChain
	left  map[tupleKey]*flattenChain
	all   []*flattenChain
	arena []flattenChain
}

var flattenPool = sync.Pool{
	New: func() any {
		return &flattenScratch{
			live: make(map[tupleKey]*flattenChain),
			left: make(map[tupleKey]*flattenChain),
		}
	},
}

// newChain allocates a chain from the arena. Pointers remain valid across
// arena growth (older chains stay in the previous backing array).
func (fs *flattenScratch) newChain(c flattenChain) *flattenChain {
	fs.arena = append(fs.arena, c)
	p := &fs.arena[len(fs.arena)-1]
	fs.all = append(fs.all, p)
	return p
}

// vacate records that c no longer holds its source's key, if it has a
// source: it was deleted or moved to another key.
func (fs *flattenScratch) vacate(c *flattenChain) {
	if c.source != nil {
		fs.left[tupleKey{rel: c.rel.Name, enc: c.sourceKeyEnc}] = c
	}
}

// claim returns the chain a value arriving at key kk continues, or nil if
// it starts one: the chain whose source held kk and has left it, so each
// key's source stays with one chain and the flattened updates apply in any
// order. A deleted chain revives (−t then +t′ with the same key is
// source→t′); a chain that moved to another key keeps its value as an
// insert, and its source goes to a new chain that kk's value continues.
func (fs *flattenScratch) claim(kk tupleKey) *flattenChain {
	c, ok := fs.left[kk]
	if !ok {
		return nil
	}
	delete(fs.left, kk)
	if c.cur == nil {
		return c
	}
	home := fs.newChain(flattenChain{rel: c.rel, source: c.source, sourceEnc: c.sourceEnc, sourceKeyEnc: c.sourceKeyEnc})
	c.source, c.sourceEnc, c.sourceKeyEnc = nil, "", ""
	return home
}

// forget deletes from live and left the keys the chains wrote, and reports
// whether that emptied both. A chain is keyed in live by its current value
// while it has one, and in left by its source key once it leaves it, so deleting
// those keys costs O(chains) where clear costs O(capacity): a map grown once
// by a large Flatten is not swept on every later small one.
func (fs *flattenScratch) forget() bool {
	for _, c := range fs.all {
		if c.cur != nil {
			delete(fs.live, tupleKey{rel: c.rel.Name, enc: c.curEnc})
		}
		if c.source != nil {
			delete(fs.left, tupleKey{rel: c.rel.Name, enc: c.sourceKeyEnc})
		}
	}
	return len(fs.live) == 0 && len(fs.left) == 0
}

// reset empties the scratch for its next call. The arena is zeroed, not
// just truncated, so an idle pooled scratch does not pin the previous
// call's tuples and encodings.
func (fs *flattenScratch) reset() {
	if !fs.forget() {
		clear(fs.live)
		clear(fs.left)
	}
	clear(fs.all)
	fs.all = fs.all[:0]
	clear(fs.arena)
	fs.arena = fs.arena[:0]
}

// release resets the scratch and returns it to the pool.
func (fs *flattenScratch) release() {
	fs.reset()
	flattenPool.Put(fs)
}

// Flatten takes an ordered sequence of updates and produces a set of
// mutually independent updates with all dependency chains removed, in the
// style of Heraclitus delta composition ([12] in the paper, as used by [14]).
//
// Value chains are composed: an insert followed by modifications of the
// inserted value collapses to a single insert of the final value; a
// modification chain a→b→c collapses to a→c; an insert followed by a delete
// of the same chain vanishes; a value arriving at the key of an existing
// value that was deleted or moved away (by an insert, or a modify that
// changes its key) continues that value's chain, so a delete followed by an
// insert with the same key collapses to a modification; a chain that
// returns to its source value has no net effect.
//
// Flatten knows nothing of the instance the sequence applies to, so it
// takes an insert of a value no chain holds for the creation of that value;
// flattenOn reads the instance instead.
//
// The schema is needed to compute key projections. The output is sorted
// deterministically (by relation, then tuple encoding) and carries populated
// encoding caches. Flatten returns an error if the sequence is malformed,
// e.g. a modification would move a chain onto a value already held live by
// another chain. It is safe for concurrent use.
func Flatten(s *Schema, updates []Update) ([]Update, error) {
	return flattenOn(s, nil, updates)
}

// flattenOn is Flatten of a sequence that applies to base (nil: Flatten).
// An insert of a value base holds, which no chain has touched yet, changes
// nothing: it opens a chain whose source is that value, so a later delete
// or modify of the value deletes or modifies it in base.
func flattenOn(s *Schema, base *Instance, updates []Update) ([]Update, error) {
	fs := flattenPool.Get().(*flattenScratch)
	defer fs.release()
	return fs.flatten(s, base, updates)
}

// readsBase reports whether flattenOn(…, base, …) of the list's footprint
// can differ from Flatten: an update of the list deletes or modifies a
// value base holds that an earlier update of the list inserts. An insert of
// a held value that nothing consumes after it applies as a no-op either way.
func readsBase(base *Instance, list []*Transaction) bool {
	if base == nil {
		return false
	}
	for xi, x := range list {
		for j := range x.Updates {
			w := &x.Updates[j]
			if w.Op == OpInsert || !insertedBefore(list[:xi+1], j, w) {
				continue
			}
			if rel, ok := base.schema.Relation(w.Rel); ok && base.holds(w.Rel, w.keyEncTuple(rel), w.Tuple) {
				return true
			}
		}
	}
	return false
}

// insertedBefore reports whether an update of list before the j-th update
// of its last transaction inserts the value w deletes or modifies.
func insertedBefore(list []*Transaction, j int, w *Update) bool {
	for xi, x := range list {
		for i := range x.Updates {
			if xi == len(list)-1 && i == j {
				return false
			}
			if u := &x.Updates[i]; u.Op == OpInsert && u.Rel == w.Rel && u.tupleEnc() == w.tupleEnc() {
				return true
			}
		}
	}
	return false
}

// flatten is flattenOn on the given scratch, which it leaves for release.
func (fs *flattenScratch) flatten(s *Schema, base *Instance, updates []Update) ([]Update, error) {
	// live chains indexed by the encoding of their current value (chains
	// that left their source's key are in fs.left, see claim).
	live := fs.live

	for i, u := range updates {
		rel, ok := s.Relation(u.Rel)
		if !ok {
			return nil, fmt.Errorf("core: flatten: update %d over unknown relation %s", i, u.Rel)
		}
		switch u.Op {
		case OpInsert:
			vk := tupleKey{rel: u.Rel, enc: u.tupleEnc()}
			if _, exists := live[vk]; exists {
				continue // duplicate insert of the same value: idempotent
			}
			kk := tupleKey{rel: u.Rel, enc: u.keyEncTuple(rel)}
			c := fs.claim(kk)
			if c == nil {
				c = fs.newChain(flattenChain{rel: rel})
				if base.holds(u.Rel, kk.enc, u.Tuple) {
					c.source, c.sourceEnc, c.sourceKeyEnc = u.Tuple, vk.enc, kk.enc
				}
			}
			c.cur, c.curEnc, c.origin = u.Tuple, vk.enc, u.Origin
			live[vk] = c
		case OpModify:
			srcK := tupleKey{rel: u.Rel, enc: u.tupleEnc()}
			dstK := tupleKey{rel: u.Rel, enc: u.newEnc()}
			if srcK == dstK {
				continue // identity modification: no net effect
			}
			if _, exists := live[dstK]; exists {
				return nil, fmt.Errorf("core: flatten: update %d (%s) collides with a live value", i, u)
			}
			c, ok := live[srcK]
			if ok {
				delete(live, srcK)
			} else {
				c = fs.newChain(flattenChain{rel: rel, source: u.Tuple, sourceEnc: srcK.enc, sourceKeyEnc: u.keyEncTuple(rel)})
			}
			if u.New != nil && u.keyEncNew(rel) != u.keyEncTuple(rel) {
				// The value leaves its key for another: as a delete
				// there and an insert here.
				fs.vacate(c)
				if a := fs.claim(tupleKey{rel: u.Rel, enc: u.keyEncNew(rel)}); a != nil {
					c.cur, c.curEnc, c.origin = nil, "", u.Origin
					c = a
				}
			}
			c.cur, c.curEnc, c.origin = u.New, dstK.enc, u.Origin
			live[dstK] = c
		case OpDelete:
			vk := tupleKey{rel: u.Rel, enc: u.tupleEnc()}
			if c, ok := live[vk]; ok {
				delete(live, vk)
				c.cur, c.curEnc, c.origin = nil, "", u.Origin
				fs.vacate(c) // a chain with no source vanishes
				continue
			}
			kk := tupleKey{rel: u.Rel, enc: u.keyEncTuple(rel)}
			if _, dup := fs.left[kk]; dup {
				continue // repeated delete with the same source key: idempotent
			}
			fs.left[kk] = fs.newChain(flattenChain{
				rel: rel, source: u.Tuple, origin: u.Origin,
				sourceEnc: vk.enc, sourceKeyEnc: kk.enc,
			})
		default:
			return nil, fmt.Errorf("core: flatten: update %d has unknown op %d", i, u.Op)
		}
	}

	out := make([]Update, 0, len(fs.all))
	for _, c := range fs.all {
		switch {
		case c.source == nil && c.cur != nil:
			out = append(out, Update{
				Op: OpInsert, Rel: c.rel.Name, Tuple: c.cur, Origin: c.origin,
				enc: &updateEnc{tuple: c.curEnc, keyT: c.rel.KeyEnc(c.cur)},
			})
		case c.source != nil && c.cur != nil:
			if c.source.Equal(c.cur) {
				continue // chain returned to its source: no net effect
			}
			out = append(out, Update{
				Op: OpModify, Rel: c.rel.Name, Tuple: c.source, New: c.cur, Origin: c.origin,
				enc: &updateEnc{
					tuple: c.sourceEnc, newt: c.curEnc,
					keyT: c.sourceKeyEnc, keyN: c.rel.KeyEnc(c.cur),
				},
			})
		case c.source != nil && c.cur == nil:
			out = append(out, Update{
				Op: OpDelete, Rel: c.rel.Name, Tuple: c.source, Origin: c.origin,
				enc: &updateEnc{tuple: c.sourceEnc, keyT: c.sourceKeyEnc},
			})
		}
	}
	sortUpdates(out)
	return out, nil
}

// sortUpdates orders updates deterministically: by relation, tuple encoding,
// op, then replacement encoding. It uses the per-update encoding caches when
// present, so the comparator does not re-encode tuples on every comparison.
func sortUpdates(us []Update) {
	sort.Slice(us, func(i, j int) bool {
		a, b := &us[i], &us[j]
		if a.Rel != b.Rel {
			return a.Rel < b.Rel
		}
		ae, be := a.tupleEnc(), b.tupleEnc()
		if ae != be {
			return ae < be
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.newEnc() < b.newEnc()
	})
}
