package store

import (
	"context"

	"orchestra/internal/core"
)

// TrustResolver is the Backend capability of resolving trust delegations
// (the central store's trust graph, the remote client by RPC): it reports
// each peer's *effective* trust — the registered policy with its delegation
// closure merged in. Peers use it to keep their local engine
// pricing candidates exactly as the store does.
type TrustResolver interface {
	// EffectiveTrust returns the peer's resolved trust. Unknown peers
	// error; a registered peer always has an answer (possibly its own
	// policy unchanged, when it delegates to nobody).
	EffectiveTrust(ctx context.Context, peer core.PeerID) (core.Trust, error)
}
