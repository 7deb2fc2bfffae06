// Package rpc defines the request/response transport abstraction shared by
// the simulated network fabric (internal/simnet) and the TCP transport in
// this package, plus gob codec helpers. The update stores and the DHT are
// written against Caller/Handler and run unchanged over either transport.
package rpc

import (
	"bytes"
	"context"
	"encoding/gob"
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
	// Body is the gob-encoded argument.
	Body []byte
}

// Handler processes requests at an endpoint. The context carries the
// caller's deadline and cancellation across the transport: the simulated
// fabric passes the caller's context through directly, and the TCP
// transport ships the remaining budget and reapplies it server-side
// (wireRequest.TimeoutNanos), so client/server clock skew never shifts a
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

// Encode gob-encodes a value for a request or response body.
func Encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("rpc: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// MustEncode is Encode that panics on error; for values whose encodability
// is guaranteed by construction.
func MustEncode(v any) []byte {
	b, err := Encode(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Decode gob-decodes a request or response body into v.
func Decode(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("rpc: decode: %w", err)
	}
	return nil
}

// Invoke encodes args, performs the call, and decodes the reply into reply
// (which may be nil for calls without results).
func Invoke(ctx context.Context, c Caller, to, method string, args, reply any) error {
	var body []byte
	if args != nil {
		var err error
		body, err = Encode(args)
		if err != nil {
			return err
		}
	}
	resp, err := c.Call(ctx, to, method, body)
	if err != nil {
		return err
	}
	if reply == nil {
		return nil
	}
	return Decode(resp, reply)
}
