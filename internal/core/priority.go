package core

// Trust evaluates a participant's acceptance rules A(p_i): given an update,
// it returns the highest priority v among the rules (θ, v) whose predicate θ
// the update satisfies, or 0 if no rule with v > 0 matches (the update is
// untrusted). Implementations live in internal/trust; core depends only on
// this interface.
type Trust interface {
	// Priority returns the priority the participant assigns to the update,
	// 0 meaning untrusted.
	Priority(u Update) int
}

// TrustFunc adapts a function to the Trust interface.
type TrustFunc func(u Update) int

// Priority implements Trust.
func (f TrustFunc) Priority(u Update) int { return f(u) }

// constTrust assigns one priority to every update.
type constTrust int

func (c constTrust) Priority(Update) int { return int(c) }

// TrustAll returns a policy that assigns the same priority to every update;
// the paper's experiments use TrustAll(1) at every peer.
func TrustAll(priority int) Trust { return constTrust(priority) }

// originsTrust maps origins to priorities.
type originsTrust map[PeerID]int

func (m originsTrust) Priority(u Update) int { return m[u.Origin] }

// TrustOrigins returns a policy that maps each originating peer to a
// priority, 0 for unlisted peers — the arc labels of Figure 1.
func TrustOrigins(prio map[PeerID]int) Trust {
	cp := make(originsTrust, len(prio))
	for k, v := range prio {
		cp[k] = v
	}
	return cp
}

// TxnPriority computes pri_i(X) exactly as defined in §4:
//
//   - 0, if any update δ ∈ X is untrusted (no acceptance rule with v > 0
//     matches δ);
//   - max over all updates of the matched priority, otherwise.
//
// A nil policy trusts nothing.
func TxnPriority(t Trust, x *Transaction) int {
	if t == nil {
		return 0
	}
	max := 0
	for _, u := range x.Updates {
		v := t.Priority(u)
		if v <= 0 {
			return 0
		}
		if v > max {
			max = v
		}
	}
	return max
}
