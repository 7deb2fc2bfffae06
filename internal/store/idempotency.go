package store

import "context"

// IdempotencyKey identifies one logical mutating store call across
// transport retries. A client that may deliver the same call twice — a
// retry after a lost reply, a duplicated message — attaches the same key to
// every attempt; a Backend executes the call once and replays the recorded
// result to every later attempt. Keys must be unique per logical call:
// reusing a key returns the first call's result, whatever the arguments.
type IdempotencyKey string

// idemCtxKey carries the key through a context.
type idemCtxKey struct{}

// WithIdempotencyKey returns a context carrying the idempotency key for the
// next mutating store call. An empty key is no key: ctx comes back as it is,
// so a layer that relays an optional key (a wire field, an HTTP header) need
// not branch on its presence.
func WithIdempotencyKey(ctx context.Context, key IdempotencyKey) context.Context {
	if key == "" {
		return ctx
	}
	return context.WithValue(ctx, idemCtxKey{}, key)
}

// IdempotencyKeyFrom extracts the idempotency key from the context, if any.
func IdempotencyKeyFrom(ctx context.Context) (IdempotencyKey, bool) {
	key, ok := ctx.Value(idemCtxKey{}).(IdempotencyKey)
	return key, ok && key != ""
}
