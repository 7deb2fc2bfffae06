package store

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"syscall"

	"orchestra/internal/rpc"
)

// IsTransient reports whether an error from a store call looks like a
// temporary transport failure worth retrying: the simulated fabric's
// unreachable/timeout errors, TCP dial and reset failures, torn
// connections, and deadline expiries. Application-level errors — unknown
// peer, refused compaction, a server-side failure string travelling back
// over the wire — are permanent: retrying them returns the same answer.
//
// Context cancellation is deliberately not transient: the caller asked to
// stop. Deadline expiry is: the call may simply have outwaited a slow or
// lossy link, and a retry with a fresh deadline can succeed.
//
// This is the one error taxonomy shared by the retry policy
// (rpc.RetryPolicy.Classify), ReconcileAll's per-peer error reporting, and
// any embedder deciding whether a failed store call is worth repeating.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, rpc.ErrUnreachable) || errors.Is(err, rpc.ErrTimeout) {
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.ECONNABORTED) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	// A torn frame or connection: the server went away mid-call (restart,
	// crash); the reply is lost but the dial will come back.
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}
