package orchestra

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Scheduler drives many groups' reconciliation with bounded global
// concurrency and per-group fairness. Two modes mirror the two System
// drive paths: RunRound/RunRounds runs barrier rounds (each group one
// ReconcileAll), and RunStreaming multiplexes the groups' streaming
// reconcile loops. In both, at most Limit groups are active at once, and
// a rotating start index guarantees no group is persistently served last
// when the fleet is larger than the bound.
type Scheduler struct {
	groups []*Group
	limit  int

	mu   sync.Mutex
	next int // rotating fairness offset
}

// SchedulerOption configures NewScheduler.
type SchedulerOption func(*Scheduler)

// WithGroupLimit bounds how many groups the scheduler drives at once
// (default GOMAXPROCS).
func WithGroupLimit(n int) SchedulerOption {
	return func(s *Scheduler) {
		if n > 0 {
			s.limit = n
		}
	}
}

// streamSlice is how long each group streams per turn when the group count
// exceeds the limit and streaming must time-multiplex. Shorter slices rotate
// attention faster at the cost of more subscription churn; slicing never
// loses work — a group's reconciliation cursor is durable in its store, so
// the next turn resumes exactly where the last stopped.
const streamSlice = 50 * time.Millisecond

// NewScheduler builds a scheduler over the given groups (usually
// fleet.Groups()).
func NewScheduler(groups []*Group, opts ...SchedulerOption) *Scheduler {
	s := &Scheduler{
		groups: append([]*Group(nil), groups...),
		limit:  runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// GroupError reports one group's failure within a scheduler pass; the
// joined error a pass returns is made of these.
type GroupError struct {
	Group string
	Err   error
}

func (e *GroupError) Error() string {
	return fmt.Sprintf("orchestra: group %s: %v", e.Group, e.Err)
}

func (e *GroupError) Unwrap() error { return e.Err }

// rotate returns the group visit order for one pass: a rotating start
// index, so over successive passes every group takes every queue
// position.
func (s *Scheduler) rotate() []*Group {
	s.mu.Lock()
	start := s.next
	if len(s.groups) > 0 {
		s.next = (s.next + 1) % len(s.groups)
	}
	s.mu.Unlock()
	out := make([]*Group, 0, len(s.groups))
	out = append(out, s.groups[start:]...)
	out = append(out, s.groups[:start]...)
	return out
}

// RunRound runs one reconciliation round: every group's ReconcileAll, at
// most Limit groups concurrently, in rotated order. A group whose round
// fails is reported in the joined error as a *GroupError; the other
// groups complete normally.
func (s *Scheduler) RunRound(ctx context.Context) error {
	order := s.rotate()
	errs := make([]error, len(order))
	sem := make(chan struct{}, s.limit)
	var wg sync.WaitGroup
	for i, g := range order {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, g *Group) {
			defer func() { <-sem; wg.Done() }()
			if _, err := g.sys.ReconcileAll(ctx); err != nil {
				errs[i] = &GroupError{Group: g.id, Err: err}
			}
		}(i, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RunRounds runs n rounds, stopping at the first round with failures (the
// per-group errors join into the return) or when ctx ends.
func (s *Scheduler) RunRounds(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.RunRound(ctx); err != nil {
			return err
		}
	}
	return nil
}

// RunStreaming drives every group's streaming reconcile loop until ctx
// ends. With Limit ≥ group count, all groups stream continuously. With
// more groups than the bound, Limit workers time-multiplex: each worker
// repeatedly takes the next group in rotation and streams it for one
// slice (streamSlice). Slicing preserves correctness — a group's
// publish/reconcile cursor lives in its store, so every slice resumes
// from the durable frontier — and the rotation bounds how long any group
// waits between slices.
//
// Cancelling ctx is the normal shutdown and yields a nil error; permanent
// per-group stream failures are joined into the return as *GroupErrors,
// and their groups sit out the rest of the run while others continue.
func (s *Scheduler) RunStreaming(ctx context.Context) error {
	if len(s.groups) == 0 {
		<-ctx.Done()
		return nil
	}
	if s.limit >= len(s.groups) {
		errs := make([]error, len(s.groups))
		var wg sync.WaitGroup
		for i, g := range s.groups {
			wg.Add(1)
			go func(i int, g *Group) {
				defer wg.Done()
				if err := g.sys.RunStreaming(ctx); err != nil && ctx.Err() == nil {
					errs[i] = &GroupError{Group: g.id, Err: err}
				}
			}(i, g)
		}
		wg.Wait()
		return errors.Join(errs...)
	}

	// Time-multiplexed: limit workers, shared rotation cursor, one slice
	// per turn. A group that failed permanently is skipped thereafter, and
	// a group a worker currently holds is skipped too — without that, a
	// turn that returns before its slice (a group with zero peers returns
	// immediately) lets the cursor wrap and hand the same group to a
	// second worker, driving duplicate per-peer streams concurrently.
	var (
		mu     sync.Mutex
		cursor int
		busy   = make([]bool, len(s.groups))
		failed = make([]bool, len(s.groups))
		errs   = make([]error, len(s.groups))
	)
	// take claims the next group that is neither failed nor held by
	// another worker; alive reports whether any unfailed group remains
	// (busy or not), so workers can tell "wait" from "all groups failed".
	take := func() (i int, g *Group, alive bool) {
		mu.Lock()
		defer mu.Unlock()
		for tries := 0; tries < len(s.groups); tries++ {
			i := cursor
			cursor = (cursor + 1) % len(s.groups)
			if failed[i] {
				continue
			}
			alive = true
			if busy[i] {
				continue
			}
			busy[i] = true
			return i, s.groups[i], true
		}
		return -1, nil, alive
	}
	release := func(i int) {
		mu.Lock()
		busy[i] = false
		mu.Unlock()
	}
	idle := func(d time.Duration) { // ctx-aware sleep
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
		case <-t.C:
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < s.limit; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i, g, alive := take()
				if g == nil {
					if !alive {
						return // every group failed
					}
					idle(streamSlice) // all live groups held by other workers
					continue
				}
				start := time.Now()
				sctx, cancel := context.WithTimeout(ctx, streamSlice)
				err := g.sys.RunStreaming(sctx)
				cancel()
				if err != nil && ctx.Err() == nil {
					mu.Lock()
					failed[i] = true
					errs[i] = &GroupError{Group: g.id, Err: err}
					mu.Unlock()
				}
				release(i)
				// A turn is one slice of attention whether or not the group
				// used it: sleeping out an early return keeps a fleet of
				// empty groups from hot-spinning the rotation.
				if rest := streamSlice - time.Since(start); err == nil && rest > 0 {
					idle(rest)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
