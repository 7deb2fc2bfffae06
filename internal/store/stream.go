package store

import (
	"context"
	"fmt"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/metrics"
)

// This file implements the incremental reconcile loop on top of the watch
// subscription (watch.go): instead of the round barrier of
// System.ReconcileAll, a peer subscribes to newly stable epochs and
// reconciles each window as it arrives: the same step-then-settle as
// Peer.Reconcile (peer.go), retried in place.
//
// Watch events serve as a wake signal and resume cursor ONLY: the actual
// reconciliation windows always come from BeginReconciliation, which is
// frontier-driven, idempotency-keyed under a retrying client, and
// crash-safe. A window can therefore never be skipped or double-applied no
// matter how the subscription breaks and resumes — the store's per-peer
// frontier, not the stream, defines window boundaries.

// StreamResult reports one completed streaming step: the window's end
// epoch (the peer's new reconciliation frontier) and the reconciliation
// outcome whose decisions have been recorded.
type StreamResult struct {
	Peer core.PeerID
	// To is the peer's reconciliation frontier after the step.
	To     core.Epoch
	Result *core.Result
	Batch  DecisionBatch
}

// StreamOptions tunes ReconcileStream. The zero value is usable: the retry
// cadence gets defaults, metrics and the observer stay off.
type StreamOptions struct {
	// RetryBase/RetryMax bound the exponential backoff between retries of
	// a transiently failing step or subscription (defaults 2ms / 100ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Metrics, when set, receives per-step reconciliation stats and the
	// stream lag observations (publish-to-stable, stable-to-decision).
	Metrics *metrics.Pipeline
	// OnResult, when set, is invoked after every streaming step whose
	// decisions are recorded — including empty ones, so a caller can track
	// the peer's frontier. Called from the stream goroutine.
	OnResult func(StreamResult)
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.RetryBase <= 0 {
		o.RetryBase = 2 * time.Millisecond
	}
	if o.RetryMax < o.RetryBase {
		o.RetryMax = 100 * time.Millisecond
	}
	return o
}

// ReconcileStream reconciles continuously until ctx is done: it blocks on
// the store's watch subscription and steps once per stable window. It
// returns nil when ctx ends the stream and an error only for permanent
// failures (transient ones are retried with backoff in place) — a store
// that is not a Watcher is one. The peer's other methods stay usable
// concurrently — Edit and Publish interleave with streaming steps under
// the peer's internal lock.
func (p *Peer) ReconcileStream(ctx context.Context, opts StreamOptions) error {
	w, ok := p.store.(Watcher)
	if !ok {
		return fmt.Errorf("store: %T cannot watch stable epochs, so it cannot stream", p.store)
	}
	opts = opts.withDefaults()
	p.setStreaming(true)
	defer p.setStreaming(false)
	return p.streamWatching(ctx, w, &opts)
}

func (p *Peer) setStreaming(on bool) {
	p.mu.Lock()
	p.streaming = on
	if !on {
		p.pubStamps = nil
	}
	p.mu.Unlock()
}

// streamWatching drives the subscription path. The cursor passed back to
// WatchFrom is the frontier of the last successful step, so a resumed
// subscription picks up exactly where the consumer actually is — never
// where a broken stream claimed to be.
func (p *Peer) streamWatching(ctx context.Context, w Watcher, opts *StreamOptions) error {
	// Catch-up step: reconcile whatever is already stable and learn the
	// frontier the subscription starts from.
	cursor, err := p.streamStepRetry(ctx, opts, time.Time{})
	if err != nil {
		return err
	}
	backoff := opts.RetryBase
	for ctx.Err() == nil {
		ch, werr := w.WatchFrom(ctx, cursor)
		if werr != nil {
			if ctx.Err() != nil {
				return nil
			}
			// Transient transport failure: refresh the frontier with a step
			// and try again.
			if !sleepCtx(ctx, backoff) {
				return nil
			}
			backoff = min(backoff*2, opts.RetryMax)
			to, serr := p.streamStepRetry(ctx, opts, time.Time{})
			if serr != nil {
				return serr
			}
			if to > cursor {
				cursor = to
			}
			continue
		}
		delivered := false
		for ev := range ch {
			delivered = true
			arrived := time.Now()
			if ev.To > cursor {
				cursor = ev.To
			}
			to, serr := p.streamStepRetry(ctx, opts, arrived)
			if serr != nil {
				return serr
			}
			if to > cursor {
				cursor = to
			}
		}
		// Channel closed with ctx live: the subscription broke (fault,
		// store restart). Resume from the cursor — after a backoff if the
		// subscription never delivered, so a dead store is re-dialed at the
		// retry cadence instead of in a tight loop.
		if delivered {
			backoff = opts.RetryBase
		} else {
			if !sleepCtx(ctx, backoff) {
				return nil
			}
			backoff = min(backoff*2, opts.RetryMax)
		}
	}
	return nil
}

// streamStepRetry runs one step, retrying transient failures with capped
// exponential backoff until the step succeeds, ctx ends, or the failure is
// permanent. A nil error with ctx done means the stream is shutting down.
func (p *Peer) streamStepRetry(ctx context.Context, opts *StreamOptions, arrived time.Time) (core.Epoch, error) {
	backoff := opts.RetryBase
	for {
		to, err := p.streamStep(ctx, opts, arrived)
		if err == nil {
			return to, nil
		}
		if ctx.Err() != nil {
			return 0, nil
		}
		if !IsTransient(err) {
			return 0, err
		}
		if !sleepCtx(ctx, backoff) {
			return 0, nil
		}
		backoff = min(backoff*2, opts.RetryMax)
	}
}

// streamStep is one step-then-settle pass. A failed flush fails the step
// with the batch still owed, and the retry's step pays it before it begins
// the next window. A non-zero arrived time marks the step as event-driven and
// feeds the stable-to-decision lag counter; publish-to-stable is observed
// for every own publish the window covers.
func (p *Peer) streamStep(ctx context.Context, opts *StreamOptions, arrived time.Time) (core.Epoch, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, batch, to, err := p.stepLocked(ctx)
	if err == nil {
		err = settleLocked(ctx, p)
	}
	if err != nil {
		return 0, err
	}
	kept := p.pubStamps[:0]
	for _, st := range p.pubStamps {
		if st.epoch <= to {
			if opts.Metrics != nil {
				opts.Metrics.ObserveStreamStable(time.Since(st.t))
			}
		} else {
			kept = append(kept, st)
		}
	}
	p.pubStamps = kept
	if opts.Metrics != nil {
		opts.Metrics.Observe(res)
		if !arrived.IsZero() {
			opts.Metrics.ObserveStreamDecide(time.Since(arrived))
		}
	}
	if opts.OnResult != nil {
		opts.OnResult(StreamResult{Peer: p.ID(), To: to, Result: res, Batch: batch})
	}
	return to, nil
}

// sleepCtx sleeps d or until ctx is done; it reports whether the full
// sleep elapsed with ctx still live.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
