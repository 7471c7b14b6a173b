// lifecycle.go implements end-to-end job lifecycle control for the
// service: typed job-failure classification (cancelled / deadline /
// shed / dependency), admission control with in-flight accounting, and
// Drain for orderly shutdown.
//
// Deadlines are expressed on the simulated logical clock, not wall
// time: a job's completion time is its submission time plus simulated
// latency, so whether a deadline is exceeded is a pure function of the
// plan and its submission tick — byte-deterministic across runs.
// Cancellation uses real context.Context plumbing (the executor polls at
// vertex and chunk boundaries), since cancellation is inherently
// asynchronous.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"cloudviews/internal/breaker"
)

// JobErrorReason classifies why the lifecycle layer failed a job.
type JobErrorReason int

const (
	// ReasonCancelled: the submission context was cancelled mid-flight.
	ReasonCancelled JobErrorReason = iota
	// ReasonDeadline: the job's simulated completion time passed its
	// logical-clock deadline.
	ReasonDeadline
	// ReasonShed: admission control rejected the job before execution
	// because the service was draining.
	ReasonShed
	// ReasonDependency: a dependency's circuit breaker was open and the
	// job could not be degraded around it (a view read short-circuited
	// after the replan budget ran out, or with reuse off for the VC).
	ReasonDependency
)

func (r JobErrorReason) String() string {
	switch r {
	case ReasonCancelled:
		return "cancelled"
	case ReasonDeadline:
		return "deadline"
	case ReasonShed:
		return "shed"
	case ReasonDependency:
		return "dependency"
	}
	return fmt.Sprintf("JobErrorReason(%d)", int(r))
}

// JobError is the typed failure the service returns for lifecycle
// outcomes: the job that failed, why, and the underlying cause.
// errors.Is/As reach the cause through Unwrap.
type JobError struct {
	JobID  string
	Reason JobErrorReason
	Err    error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("core: job %s %s: %v", e.JobID, e.Reason, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// ErrDraining is the cause inside the JobError a submission receives
// when the service has begun draining and no longer admits jobs.
var ErrDraining = errors.New("core: service draining, not admitting jobs")

// admission is the in-flight gate in front of submitAt: it counts the
// executing submissions and holds the draining latch Drain flips. cond is
// set by NewService and wakes Drain when the count reaches zero.
type admission struct {
	mu       sync.Mutex
	cond     *sync.Cond
	inFlight int
	draining bool
}

// enter registers the job, or fails with ErrDraining if the service is
// draining.
func (a *admission) enter() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return ErrDraining
	}
	a.inFlight++
	return nil
}

// exit deregisters the job and wakes Drain when the service runs dry.
func (a *admission) exit() {
	a.mu.Lock()
	a.inFlight--
	if a.inFlight == 0 {
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

// InFlight reports how many submissions are currently executing.
func (s *Service) InFlight() int {
	s.admit.mu.Lock()
	defer s.admit.mu.Unlock()
	return s.admit.inFlight
}

// Drain stops admitting jobs (subsequent submissions fail with a
// ReasonShed JobError wrapping ErrDraining), waits for every in-flight
// job to run down, and — when journal is non-nil — flushes the metadata
// service's state to it so a restarted service can warm-start. ctx
// bounds the wait; if it expires the service stays draining but the
// remaining in-flight count is reported in the error.
func (s *Service) Drain(ctx context.Context, journal io.Writer) error {
	a := &s.admit
	a.mu.Lock()
	a.draining = true
	// cond.Wait cannot watch ctx directly; mirror ctx expiry into a
	// broadcast so the wait loop re-checks and gives up.
	stop := context.AfterFunc(ctx, func() {
		a.mu.Lock()
		a.cond.Broadcast()
		a.mu.Unlock()
	})
	defer stop()
	for a.inFlight > 0 && ctx.Err() == nil {
		a.cond.Wait()
	}
	left := a.inFlight
	a.mu.Unlock()
	if left > 0 {
		return fmt.Errorf("core: drain interrupted with %d jobs in flight: %w", left, ctx.Err())
	}
	if journal != nil {
		if err := s.Meta.Save(journal); err != nil {
			return fmt.Errorf("core: drain journal flush: %w", err)
		}
	}
	return nil
}

// Draining reports whether Drain has been called.
func (s *Service) Draining() bool {
	s.admit.mu.Lock()
	defer s.admit.mu.Unlock()
	return s.admit.draining
}

// lifecycleError maps an execution or admission failure onto the typed
// JobError taxonomy and bumps the matching counter. Errors that already
// are JobErrors, and errors outside the taxonomy, pass through.
func (s *Service) lifecycleError(jobID string, err error) error {
	var je *JobError
	if errors.As(err, &je) {
		return err
	}
	switch {
	case errors.Is(err, ErrDraining):
		s.recovery.bump(func() { s.recovery.shed.Add(1) })
		return &JobError{JobID: jobID, Reason: ReasonShed, Err: err}
	case errors.Is(err, context.DeadlineExceeded):
		s.recovery.bump(func() { s.recovery.deadline.Add(1) })
		return &JobError{JobID: jobID, Reason: ReasonDeadline, Err: err}
	case errors.Is(err, context.Canceled):
		s.recovery.bump(func() { s.recovery.cancelled.Add(1) })
		return &JobError{JobID: jobID, Reason: ReasonCancelled, Err: err}
	}
	var oe *breaker.OpenError
	if errors.As(err, &oe) {
		return &JobError{JobID: jobID, Reason: ReasonDependency, Err: err}
	}
	return err
}
