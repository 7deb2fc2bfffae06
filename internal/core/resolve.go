package core

import (
	"fmt"
	"slices"
)

// Resolve performs user-driven conflict resolution for one conflict group
// (§4.2, end): the user selects the winning option by index, or passes
// winner = -1 to reject every option. The transactions of the losing
// options are rejected; the winners (if any) remain deferred and are
// reconsidered — along with everything that was deferred behind them — by
// the ReconcileUpdates re-run that Resolve triggers.
//
// The re-run reconsiders the deferred candidates a resolution can reach: the
// component of the resolved group, and every component that is not settled
// (see markComponents): one whose last run decided a member or deferred a
// fresh member by a dirty key or a deferred dependency, or every component
// after the trust policy, the own delta or a restore changed. The deferred
// candidates of the other components stay deferred with their dirty keys
// and conflict groups in place, which is what reconsidering them would
// arrive at. So the first resolution after a reconciliation whose
// deferrals are plain ties re-runs only its own component.
//
// Resolve returns the result of the re-run; its Deferred lists the roots of
// the reconsidered components that stay deferred, and DeferredIDs and
// ConflictGroups the whole set. Transactions that still conflict in another
// group remain deferred.
func (e *Engine) Resolve(c Conflict, winner int) (*Result, error) {
	g, ok := e.groups[c]
	if !ok {
		return nil, fmt.Errorf("core: no conflict group for %s", c)
	}
	if winner < -1 || winner >= len(g.Options) {
		return nil, fmt.Errorf("core: conflict %s has %d options; winner %d out of range",
			c, len(g.Options), winner)
	}
	// The losers are the transactions of the losing options minus those of
	// the winning option: a transaction that underlies both (a shared
	// antecedent chain prefix) survives with the winner.
	var keep []TxnID // sorted, as an option's transactions are
	if winner >= 0 {
		keep = g.Options[winner].Txns
	}
	resolved := make(map[uint64]bool, 1) // the group's component
	var losers []TxnID
	for _, opt := range g.Options {
		for _, id := range opt.Txns {
			d := e.deferredCands[id]
			if d == nil {
				continue
			}
			resolved[d.comp] = true
			if _, kept := slices.BinarySearchFunc(keep, id, compareTxnIDs); kept {
				continue
			}
			e.decided.decide(id, DecisionReject)
			e.dropDeferred(d)
			losers = append(losers, id)
		}
	}
	// Re-run reconciliation with no new candidates: the deferred candidates
	// in reach are reconsidered against the updated decided table; those
	// whose conflicts are fully resolved are accepted or rejected, and their
	// soft state (dirty values, remaining groups) is rebuilt. The
	// explicitly rejected losers are part of the result so the update
	// store learns of them.
	res, err := e.reconcile(nil, func(d *deferredCand) bool {
		return e.unsettled || !d.settled || resolved[d.comp]
	})
	if err != nil {
		return nil, err
	}
	res.Rejected = append(losers, res.Rejected...)
	return res, nil
}

// ResolveAll resolves every outstanding conflict group with the chooser's
// decision for it: the index of the winning option, or -1 to reject every
// option of the group — there is no "no choice", and an index out of range
// is an error. Each group gets its own Resolve, and so its own re-run (not
// one reconciliation at the end), in ConflictGroups() order, skipping the
// groups an earlier resolution of the pass made disappear. Passes repeat
// until no group remains or a whole pass decided nothing (the chooser keeps
// picking options whose choice rejects no one). ResolveAll returns the last
// resolution's result, nil if there was nothing to resolve.
func (e *Engine) ResolveAll(choose func(g *ConflictGroup) int) (*Result, error) {
	var last *Result
	for {
		progressed := false
		for _, g := range e.ConflictGroups() {
			if _, still := e.groups[g.Conflict]; !still {
				continue
			}
			res, err := e.Resolve(g.Conflict, choose(g))
			if err != nil {
				return last, err
			}
			last = res
			if len(res.Accepted)+len(res.Rejected) > 0 {
				progressed = true
			}
		}
		if !progressed {
			return last, nil
		}
	}
}
