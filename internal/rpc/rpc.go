// Package rpc defines the request/response transport abstraction shared by
// the simulated network fabric (internal/simnet) and the TCP transport in
// this package. Bodies are opaque bytes here: each caller owns its body
// format, and the TCP transport's own envelope is hand-rolled (frame.go).
// The update stores and the DHT are written against Caller/Handler and run
// unchanged over either transport.
package rpc

import (
	"context"
	"errors"
	"fmt"
)

// The two transport-failure sentinels a Caller may wrap. They are declared
// here, not in the fabric that injects them, so that code classifying
// errors (store.IsTransient) does not link the simulator; simnet exports
// the same values under its own names, and the messages keep its prefix.
var (
	// ErrUnreachable: the request demonstrably never reached the target
	// (unknown, partitioned or crashed node), so callers may retry any
	// operation safely.
	ErrUnreachable = errors.New("simnet: unreachable")
	// ErrTimeout: the request or its reply was lost. The caller cannot know
	// whether the handler ran — retrying is only safe for idempotent (or
	// idempotency-keyed) operations.
	ErrTimeout = errors.New("simnet: call timed out (message lost)")
)

// Request is one incoming call.
type Request struct {
	// From is the caller's address.
	From string
	// Method selects the handler behaviour, e.g. "epoch.alloc".
	Method string
	// Body is the encoded argument, in the format the method's handler
	// defines.
	Body []byte
}

// Handler processes requests at an endpoint. The context carries the
// caller's deadline and cancellation across the transport: the simulated
// fabric passes the caller's context through directly, and the TCP
// transport ships the remaining budget and reapplies it server-side (the
// request frame's TimeoutNanos), so client/server clock skew never shifts a
// handler's deadline.
type Handler interface {
	ServeRPC(ctx context.Context, req Request) ([]byte, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, req Request) ([]byte, error)

// ServeRPC implements Handler.
func (f HandlerFunc) ServeRPC(ctx context.Context, req Request) ([]byte, error) {
	return f(ctx, req)
}

// Caller issues requests to remote endpoints.
type Caller interface {
	// Call sends a request to the endpoint at address `to` and waits for
	// its response.
	Call(ctx context.Context, to, method string, body []byte) ([]byte, error)
}

// CallerFunc adapts a function to Caller.
type CallerFunc func(ctx context.Context, to, method string, body []byte) ([]byte, error)

// Call implements Caller.
func (f CallerFunc) Call(ctx context.Context, to, method string, body []byte) ([]byte, error) {
	return f(ctx, to, method, body)
}

// Mux dispatches requests by method name.
type Mux struct {
	handlers map[string]HandlerFunc
}

// NewMux returns an empty mux.
func NewMux() *Mux { return &Mux{handlers: make(map[string]HandlerFunc)} }

// Handle registers a handler for a method; it panics on duplicates (a
// programming error).
func (m *Mux) Handle(method string, h HandlerFunc) {
	if _, dup := m.handlers[method]; dup {
		panic(fmt.Sprintf("rpc: duplicate handler for %s", method))
	}
	m.handlers[method] = h
}

// ServeRPC implements Handler.
func (m *Mux) ServeRPC(ctx context.Context, req Request) ([]byte, error) {
	h, ok := m.handlers[req.Method]
	if !ok {
		return nil, fmt.Errorf("rpc: unknown method %q", req.Method)
	}
	return h(ctx, req)
}
