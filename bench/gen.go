package main

import (
	"fmt"
	"math/rand"

	"orchestra/internal/core"
	"orchestra/internal/store"
	catalog "orchestra/internal/workload"
)

// benchSchema is the single relation every workload edits.
func benchSchema() *core.Schema {
	return core.MustSchema(core.NewRelation("Function", 2, "organism", "protein", "function"))
}

// windowGen is the one input generator of the benchmark. Round r draws its
// keys from a fresh window [r*w, (r+1)*w) of Function keys; one draw in four
// goes back to a key the previous round drew. A key is therefore touched in
// two consecutive rounds at most, so conflict density stays constant and
// antecedent chains never grow past two — the steady state workload.Generator
// loses once its KeySpace saturates (README, finding 3).
//
// A generator is driven from one goroutine, and everything it returns is a
// function of the seed and the call sequence alone.
type windowGen struct {
	rng   *rand.Rand
	w     int
	round int
	prev  []int // fresh keys drawn in the previous round
	cur   []int // fresh keys drawn in this round
}

func newWindowGen(seed int64, w int) *windowGen {
	return &windowGen{rng: rand.New(rand.NewSource(seed)), w: w}
}

// nextRound moves to a fresh window.
func (g *windowGen) nextRound() {
	g.round++
	g.prev, g.cur = g.cur, g.prev[:0]
}

// pick draws one key for this round that is not in taken, and adds it. The
// caller scopes taken: per author to let authors collide within a round,
// per round to keep them apart.
func (g *windowGen) pick(taken map[int]bool) int {
	for {
		var k int
		fresh := len(g.prev) == 0 || g.rng.Intn(4) != 0
		if fresh {
			k = g.round*g.w + g.rng.Intn(g.w)
		} else {
			k = g.prev[g.rng.Intn(len(g.prev))]
		}
		if taken[k] {
			continue
		}
		taken[k] = true
		if fresh {
			g.cur = append(g.cur, k)
		}
		return k
	}
}

// function draws a function value.
func (g *windowGen) function() string {
	return catalog.Functions[g.rng.Intn(len(catalog.Functions))]
}

// keyTuple is the (organism, protein) key of key index k.
func keyTuple(k int) core.Tuple {
	return core.Strs(catalog.Organisms[k%len(catalog.Organisms)], fmt.Sprintf("P%08d", k))
}

// editFor turns a drawn (key, value) into the author's update: an insert
// when the author does not hold the key, else a modification of the tuple
// it holds (to a different value, so the update is never a no-op).
func editFor(author core.PeerID, k int, val string, cur core.Tuple, held bool) core.Update {
	key := keyTuple(k)
	next := core.Strs(key[0].Str(), key[1].Str(), val)
	if !held {
		return core.Insert("Function", next, author)
	}
	if cur[2].Str() == val {
		next[2] = core.S(val + "*")
	}
	return core.Modify("Function", cur, next, author)
}

// peerEdit draws one single-update transaction for an in-process peer and
// applies it locally, queued for the peer's next publish.
func (g *windowGen) peerEdit(p *store.Peer, taken map[int]bool) (*core.Transaction, error) {
	k := g.pick(taken)
	cur, held := p.Instance().Lookup("Function", keyTuple(k))
	return p.Edit(editFor(p.ID(), k, g.function(), cur, held))
}
