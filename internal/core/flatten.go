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
	dead  map[tupleKey]*flattenChain
	all   []*flattenChain
	arena []flattenChain
}

var flattenPool = sync.Pool{
	New: func() any {
		return &flattenScratch{
			live: make(map[tupleKey]*flattenChain),
			dead: make(map[tupleKey]*flattenChain),
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

// forget deletes from live and dead the keys the chains wrote, and reports
// whether that emptied both. A chain is keyed in live by its current value
// while it has one, and in dead by its source key once deleted, so deleting
// those keys costs O(chains) where clear costs O(capacity): a map grown once
// by a large Flatten is not swept on every later small one.
func (fs *flattenScratch) forget() bool {
	for _, c := range fs.all {
		if c.cur != nil {
			delete(fs.live, tupleKey{rel: c.rel.Name, enc: c.curEnc})
		}
		if c.source != nil {
			delete(fs.dead, tupleKey{rel: c.rel.Name, enc: c.sourceKeyEnc})
		}
	}
	return len(fs.live) == 0 && len(fs.dead) == 0
}

// reset empties the scratch for its next call. The arena is zeroed, not
// just truncated, so an idle pooled scratch does not pin the previous
// call's tuples and encodings.
func (fs *flattenScratch) reset() {
	if !fs.forget() {
		clear(fs.live)
		clear(fs.dead)
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
// of the same chain vanishes; a delete of an existing value followed by an
// insert with the same key collapses to a modification; a chain that returns
// to its source value has no net effect.
//
// The schema is needed to compute key projections. The output is sorted
// deterministically (by relation, then tuple encoding) and carries populated
// encoding caches. Flatten returns an error if the sequence is malformed,
// e.g. a modification would move a chain onto a value already held live by
// another chain. It is safe for concurrent use.
func Flatten(s *Schema, updates []Update) ([]Update, error) {
	fs := flattenPool.Get().(*flattenScratch)
	defer fs.release()
	return fs.flatten(s, updates)
}

// flatten is Flatten on the given scratch, which it leaves for release.
func (fs *flattenScratch) flatten(s *Schema, updates []Update) ([]Update, error) {
	// live chains indexed by the encoding of their current value; dead
	// chains indexed by the key of their source value so a later insert
	// with the same key revives them as a modification.
	live, deadByKey := fs.live, fs.dead

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
			if dc, ok := deadByKey[kk]; ok {
				// −t then +t′ with the same key: revive as source→t′.
				delete(deadByKey, kk)
				dc.cur = u.Tuple
				dc.curEnc = vk.enc
				dc.origin = u.Origin
				live[vk] = dc
				continue
			}
			live[vk] = fs.newChain(flattenChain{rel: rel, cur: u.Tuple, curEnc: vk.enc, origin: u.Origin})
		case OpModify:
			srcK := tupleKey{rel: u.Rel, enc: u.tupleEnc()}
			dstK := tupleKey{rel: u.Rel, enc: u.newEnc()}
			if srcK == dstK {
				continue // identity modification: no net effect
			}
			if _, exists := live[dstK]; exists {
				return nil, fmt.Errorf("core: flatten: update %d (%s) collides with a live value", i, u)
			}
			if c, ok := live[srcK]; ok {
				delete(live, srcK)
				c.cur = u.New
				c.curEnc = dstK.enc
				c.origin = u.Origin
				live[dstK] = c
				continue
			}
			live[dstK] = fs.newChain(flattenChain{
				rel: rel, source: u.Tuple, cur: u.New, origin: u.Origin,
				sourceEnc: srcK.enc, sourceKeyEnc: u.keyEncTuple(rel), curEnc: dstK.enc,
			})
		case OpDelete:
			vk := tupleKey{rel: u.Rel, enc: u.tupleEnc()}
			if c, ok := live[vk]; ok {
				delete(live, vk)
				c.cur = nil
				c.curEnc = ""
				c.origin = u.Origin
				if c.source == nil {
					continue // insert followed by delete: the chain vanishes
				}
				kk := tupleKey{rel: u.Rel, enc: c.sourceKeyEnc}
				deadByKey[kk] = c
				continue
			}
			kk := tupleKey{rel: u.Rel, enc: u.keyEncTuple(rel)}
			if _, dup := deadByKey[kk]; dup {
				continue // repeated delete with the same source key: idempotent
			}
			deadByKey[kk] = fs.newChain(flattenChain{
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
