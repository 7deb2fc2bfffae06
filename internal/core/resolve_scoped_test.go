package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// fullRerunResolve is Resolve as it was before it was scoped to components:
// reject the losers, then reconsider every deferred candidate. It is the
// oracle TestResolveScopedMatchesFullRerun holds Engine.Resolve to.
func fullRerunResolve(e *Engine, c Conflict, winner int) (*Result, error) {
	g, ok := e.groups[c]
	if !ok {
		return nil, fmt.Errorf("core: no conflict group for %s", c)
	}
	if winner < -1 || winner >= len(g.Options) {
		return nil, fmt.Errorf("core: winner %d out of range", winner)
	}
	keep := make(TxnSet)
	if winner >= 0 {
		for _, id := range g.Options[winner].Txns {
			keep.Add(id)
		}
	}
	var losers []TxnID
	for i, opt := range g.Options {
		if i == winner {
			continue
		}
		for _, id := range opt.Txns {
			if keep.Has(id) || e.Rejected(id) {
				continue
			}
			e.decided.decide(id, DecisionReject)
			if d := e.deferredCands[id]; d != nil {
				e.dropDeferred(d)
			}
			losers = append(losers, id)
		}
	}
	res, err := e.Reconcile(nil)
	if err != nil {
		return nil, err
	}
	res.Rejected = append(losers, res.Rejected...)
	return res, nil
}

// scopedSchema is F(organism, protein, function) plus a referencing
// relation, so that compatibility also reads across relations.
func scopedSchema(t *testing.T) *Schema {
	t.Helper()
	f := NewRelation("F", 2, "organism", "protein", "function")
	x := NewRelation("X", 3, "organism", "protein", "db", "accession")
	x.ForeignKeys = []ForeignKey{{Attrs: []int{0, 1}, RefRel: "F"}}
	s, err := NewSchema(f, x)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	return s
}

// trustShape names peer i's policy over n peers.
type trustShape int

const (
	trustStrict trustShape = iota // every other peer at its own rank
	trustEqual                    // everyone at rank 1
	trustTiers                    // the bench's three rotating tiers
	trustShapes
)

func (ts trustShape) policy(i, n int) Trust {
	prio := map[PeerID]int{}
	for d := 0; d < n; d++ {
		rank := 1
		switch ts {
		case trustStrict:
			rank = d + 1
		case trustTiers:
			switch {
			case d >= 1 && d <= 2:
				rank = 3
			case d >= 3 && d <= 4:
				rank = 2
			}
		}
		prio[PeerID(fmt.Sprintf("p%d", (i+d)%n))] = rank
	}
	return TrustOrigins(prio)
}

// scopedRun drives one randomized confederation through engines that
// resolve scoped (Engine.Resolve) and through twins that resolve by full
// re-run, comparing the two after every reconciliation and resolution.
type scopedRun struct {
	t     *testing.T
	name  string
	r     *rand.Rand
	multi bool
	round int
	log   *testLog
	sut   []*Engine
	ora   []*Engine

	maxChain int // longest extension handed to an engine
	resolves int // resolutions compared
	scoped   int // those that reconsidered fewer candidates than the oracle
}

var (
	scopedOrgs = []string{"rat", "mouse"}
	scopedFns  = []string{"a", "b", "c", "d"}
)

// scopedWindow is the number of F keys a round draws from. As in the bench's
// generator each round has a window of its own and one draw in four goes
// back to the previous round's: a key is contended by the peers of a round
// or two, and the deferred set falls into several components.
const scopedWindow = 12

// key draws an F key for the round.
func (sr *scopedRun) key() (org, prot string) {
	round := sr.round
	if round > 0 && sr.r.Intn(4) == 0 {
		round--
	}
	k := round*scopedWindow + sr.r.Intn(scopedWindow)
	return scopedOrgs[k%len(scopedOrgs)], fmt.Sprintf("prot%d", k/len(scopedOrgs))
}

// edit returns one update by peer e against its instance at the given F key,
// or false when the draw has no effect.
func (sr *scopedRun) edit(e *Engine, org, prot string) (Update, bool) {
	r := sr.r
	cur, held := e.Instance().Lookup("F", Strs(org, prot))
	if held && r.Intn(5) == 0 {
		// Work on the referencing relation.
		db := fmt.Sprintf("db%d", r.Intn(2))
		acc := fmt.Sprintf("acc%d", r.Intn(3))
		if x, ok := e.Instance().Lookup("X", Strs(org, prot, db)); ok {
			if r.Intn(3) == 0 {
				return Delete("X", x, e.Peer()), true
			}
			if x[3].Str() == acc {
				return Update{}, false
			}
			return Modify("X", x, Strs(org, prot, db, acc), e.Peer()), true
		}
		return Insert("X", Strs(org, prot, db, acc), e.Peer()), true
	}
	fn := scopedFns[r.Intn(len(scopedFns))]
	switch {
	case !held:
		return Insert("F", Strs(org, prot, fn), e.Peer()), true
	case r.Intn(6) == 0:
		return Delete("F", cur, e.Peer()), true
	case cur[2].Str() == fn:
		return Update{}, false
	default:
		return Modify("F", cur, Strs(org, prot, fn), e.Peer()), true
	}
}

// localTxn makes peer i's next transaction — over one key, or over up to
// three distinct ones — at both engines, and publishes it.
func (sr *scopedRun) localTxn(i int, org, prot string) {
	e := sr.sut[i]
	keys := [][2]string{{org, prot}}
	if sr.multi {
		for n := sr.r.Intn(3); n > 0; n-- {
			org, prot := sr.key()
			keys = append(keys, [2]string{org, prot})
		}
	}
	var us []Update
	seen := map[[2]string]bool{}
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		if u, ok := sr.edit(e, k[0], k[1]); ok {
			us = append(us, u)
		}
	}
	if len(us) == 0 {
		return
	}
	xS, _, errS := e.NewLocalTransaction(us...)
	xO, _, errO := sr.ora[i].NewLocalTransaction(us...)
	if (errS == nil) != (errO == nil) {
		sr.t.Fatalf("%s: local txn at %s: scoped err=%v, oracle err=%v", sr.name, e.Peer(), errS, errO)
	}
	if errS != nil {
		return // e.g. deleting a referenced tuple
	}
	if xS.ID != xO.ID {
		sr.t.Fatalf("%s: local txn ids diverge: %s vs %s", sr.name, xS.ID, xO.ID)
	}
	sr.log.publish(xS)
}

// edits is one turn of peer i: a few transactions, and now and then a burst
// of three on one key, which is what gives other peers antecedent chains of
// depth three to reconcile.
func (sr *scopedRun) edits(i int) {
	for n := 1 + sr.r.Intn(3); n > 0; n-- {
		org, prot := sr.key()
		burst := 1
		if sr.r.Intn(3) == 0 {
			burst = 3
		}
		for ; burst > 0; burst-- {
			sr.localTxn(i, org, prot)
		}
	}
}

// compare fails the test unless the two engines, and the results of the step
// they just took, are the same in everything but work counters. A scoped
// resolve (resolved) lists in its result only the deferred roots of the
// components it reconsidered: its Deferred must be a sub-list of the
// oracle's, which is the whole deferred set in run order.
func (sr *scopedRun) compare(step string, resolved bool, s, o *Engine, resS, resO *Result) {
	t := sr.t
	t.Helper()
	fail := func(what string, a, b any) {
		t.Helper()
		t.Fatalf("%s: %s at %s: %s differs\nscoped: %+v\noracle: %+v", sr.name, step, s.Peer(), what, a, b)
	}
	if resS.Recno != resO.Recno {
		fail("Recno", resS.Recno, resO.Recno)
	}
	if !reflect.DeepEqual(resS.Accepted, resO.Accepted) {
		fail("Accepted", resS.Accepted, resO.Accepted)
	}
	if !reflect.DeepEqual(resS.Rejected, resO.Rejected) {
		fail("Rejected", resS.Rejected, resO.Rejected)
	}
	if resolved {
		if !isSubList(resS.Deferred, resO.Deferred) {
			fail("Deferred (not a sub-list)", resS.Deferred, resO.Deferred)
		}
	} else if !reflect.DeepEqual(resS.Deferred, resO.Deferred) {
		fail("Deferred", resS.Deferred, resO.Deferred)
	}
	if resS.Stats.DirtyKeys != resO.Stats.DirtyKeys {
		fail("Stats.DirtyKeys", resS.Stats.DirtyKeys, resO.Stats.DirtyKeys)
	}
	sAcc, sRej := s.decided.sorted()
	oAcc, oRej := o.decided.sorted()
	if !reflect.DeepEqual(sAcc, oAcc) {
		fail("applied set", sAcc, oAcc)
	}
	if !reflect.DeepEqual(sRej, oRej) {
		fail("rejected set", sRej, oRej)
	}
	if !reflect.DeepEqual(s.DeferredIDs(), o.DeferredIDs()) {
		fail("deferred set", s.DeferredIDs(), o.DeferredIDs())
	}
	if !s.Instance().Equal(o.Instance()) {
		fail("instance", s.Instance().Tuples("F"), o.Instance().Tuples("F"))
	}
	if !reflect.DeepEqual(s.dirty, o.dirty) {
		fail("dirty keys", s.dirty, o.dirty)
	}
	if !reflect.DeepEqual(s.ConflictGroups(), o.ConflictGroups()) {
		fail("ConflictGroups()", groupStrings(s.ConflictGroups()), groupStrings(o.ConflictGroups()))
	}
}

// isSubList reports whether sub is list with some elements left out.
func isSubList(sub, list []TxnID) bool {
	for _, id := range list {
		if len(sub) > 0 && sub[0] == id {
			sub = sub[1:]
		}
	}
	return len(sub) == 0
}

func groupStrings(gs []*ConflictGroup) []string {
	var out []string
	for _, g := range gs {
		out = append(out, g.String())
	}
	return out
}

// reconcile fetches peer i's candidates once and reconciles both engines
// with them.
func (sr *scopedRun) reconcile(i int) {
	cands := sr.log.candidates(sr.sut[i])
	for _, c := range cands {
		if len(c.Ext) > sr.maxChain {
			sr.maxChain = len(c.Ext)
		}
	}
	resS, errS := sr.sut[i].Reconcile(cands)
	resO, errO := sr.ora[i].Reconcile(cands)
	if errS != nil || errO != nil {
		sr.t.Fatalf("%s: reconcile at p%d: %v / %v", sr.name, i, errS, errO)
	}
	sr.compare("Reconcile", false, sr.sut[i], sr.ora[i], resS, resO)
}

// resolve resolves one of peer i's conflict groups at both engines and
// reports whether that decided anything.
func (sr *scopedRun) resolve(i int, c Conflict, winner int) bool {
	resS, errS := sr.sut[i].Resolve(c, winner)
	resO, errO := fullRerunResolve(sr.ora[i], c, winner)
	if errS != nil || errO != nil {
		sr.t.Fatalf("%s: resolve %s at p%d: %v / %v", sr.name, c, i, errS, errO)
	}
	sr.resolves++
	if resS.Stats.Candidates < resO.Stats.Candidates {
		sr.scoped++
	}
	sr.compare(fmt.Sprintf("Resolve(%s, %d)", c, winner), true, sr.sut[i], sr.ora[i], resS, resO)
	return len(resS.Accepted)+len(resS.Rejected) > 0
}

// runScopedVsFull runs one scenario with the scoped engines and their
// oracle twins side by side.
func runScopedVsFull(t *testing.T, seed int64, shape trustShape, multi bool) *scopedRun {
	const peers, rounds = 5, 4
	s := scopedSchema(t)
	sr := &scopedRun{
		t:     t,
		name:  fmt.Sprintf("seed %d shape %d multi %v", seed, shape, multi),
		r:     rand.New(rand.NewSource(seed)),
		multi: multi,
		log:   newTestLog(t, s),
	}
	for i := 0; i < peers; i++ {
		id := PeerID(fmt.Sprintf("p%d", i))
		sr.sut = append(sr.sut, NewEngine(id, s, shape.policy(i, peers)))
		sr.ora = append(sr.ora, NewEngine(id, s, shape.policy(i, peers)))
	}
	r := sr.r
	for sr.round = 0; sr.round < rounds; sr.round++ {
		for i := range sr.sut {
			sr.edits(i)
		}
		for i := range sr.sut {
			sr.reconcile(i)
			// Resolve some of the groups, any option or none; what is left
			// stays deferred under the next round's fresh candidates.
			for n := r.Intn(6); n > 0; n-- {
				groups := sr.sut[i].ConflictGroups()
				if len(groups) == 0 {
					break
				}
				if r.Intn(6) == 0 {
					// An own edit between resolutions: the next one runs
					// with a non-empty own delta.
					org, prot := sr.key()
					sr.localTxn(i, org, prot)
				}
				g := groups[r.Intn(len(groups))]
				sr.resolve(i, g.Conflict, r.Intn(len(g.Options)+1)-1)
			}
			if sr.round == 2 && i == 0 {
				// A mid-stream re-pricing reconsiders everything.
				nS := sr.sut[i].RefreshTrust(trustEqual.policy(i, peers))
				nO := sr.ora[i].RefreshTrust(trustEqual.policy(i, peers))
				if nS != nO {
					t.Fatalf("%s: RefreshTrust re-priced %d vs %d", sr.name, nS, nO)
				}
			}
		}
	}
	// Drain: everyone catches up and resolves everything for option 0 — or,
	// where choosing it decides nothing (options that share every
	// transaction), for none.
	for i := range sr.sut {
		sr.reconcile(i)
		for n := 0; ; n++ {
			groups := sr.sut[i].ConflictGroups()
			if len(groups) == 0 {
				break
			}
			if n > 1000 {
				t.Fatalf("%s: conflict groups of p%d do not drain", sr.name, i)
			}
			if !sr.resolve(i, groups[0].Conflict, 0) {
				sr.resolve(i, groups[0].Conflict, -1)
			}
		}
	}
	return sr
}

// TestResolveScopedMatchesFullRerun: Resolve, which reconsiders only the
// components a resolution can reach, leaves the engine and reports results
// exactly as reconsidering every deferred candidate does — across trust
// shapes, single- and multi-update transactions, antecedent chains,
// foreign keys, own edits between resolutions and a trust refresh.
func TestResolveScopedMatchesFullRerun(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 20
	}
	for shape := trustShape(0); shape < trustShapes; shape++ {
		for _, multi := range []bool{false, true} {
			shape, multi := shape, multi
			t.Run(fmt.Sprintf("shape%d/multi=%v", shape, multi), func(t *testing.T) {
				t.Parallel()
				maxChain, scoped, resolves := 0, 0, 0
				for seed := int64(1); seed <= seeds; seed++ {
					sr := runScopedVsFull(t, seed, shape, multi)
					if sr.maxChain > maxChain {
						maxChain = sr.maxChain
					}
					scoped += sr.scoped
					resolves += sr.resolves
				}
				// The comparison is vacuous if the generator stops producing
				// chains or every resolution reconsiders everything.
				if maxChain < 3 {
					t.Errorf("longest antecedent chain reconciled is %d, want >= 3", maxChain)
				}
				if scoped == 0 {
					t.Errorf("none of %d resolutions was scoped", resolves)
				}
				t.Logf("longest chain %d; %d of %d resolutions scoped", maxChain, scoped, resolves)
			})
		}
	}
}
