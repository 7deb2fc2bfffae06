package orchestra

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Scheduler drives many groups' reconciliation rounds with bounded global
// concurrency and per-group fairness: RunRound/RunRounds run barrier
// rounds (each group one ReconcileAll), at most Limit groups at once, and
// a rotating start index guarantees no group is persistently served last
// when the fleet is larger than the bound. A group that streams is driven
// through its own System (Group.System()), not by the scheduler.
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
// groups complete normally. If ctx ends before every group was started,
// the rest are skipped and ctx's error joins the return: a round that did
// not run every group never reports success.
func (s *Scheduler) RunRound(ctx context.Context) error {
	order := s.rotate()
	errs := make([]error, len(order)+1)
	errs[len(order)] = fanOut(ctx, len(order), s.limit, func(i int) {
		if _, err := order[i].sys.ReconcileAll(ctx); err != nil {
			errs[i] = &GroupError{Group: order[i].id, Err: err}
		}
	})
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
