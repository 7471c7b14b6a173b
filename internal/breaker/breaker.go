// Package breaker implements a per-dependency circuit breaker on the
// job service's logical clock.
//
// A breaker guards one downstream dependency (the metadata service, the
// view store). It is Closed in healthy operation; a run of consecutive
// failures trips it Open, after which requests are short-circuited —
// rejected instantly with an OpenError instead of being attempted — so a
// failing dependency is not hammered by the very traffic it is already
// unable to serve (the amplification the paper's operating regime of tens
// of thousands of concurrent jobs would otherwise produce). Once a
// cooldown has elapsed on the logical clock, the next request is admitted
// as a half-open probe: its success closes the breaker, its failure
// re-opens it for another cooldown.
//
// Time is the cluster's simulated clock (abstract seconds), never the
// wall clock, so breaker behavior in tests is as deterministic as the
// fault schedule driving it. The caller contract is Allow → operation →
// Observe: every operation admitted by Allow must report its outcome to
// Observe exactly once.
package breaker

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// State is the breaker position.
type State int32

const (
	// Closed: requests flow; consecutive failures are counted.
	Closed State = iota
	// Open: requests are short-circuited until the cooldown elapses.
	Open
	// HalfOpen: one probe is in flight; everything else short-circuits.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// OpenError is the short-circuit error returned on behalf of an open
// breaker: the dependency was not contacted at all. It is permanent for
// the attempt (retrying immediately cannot help — the breaker will keep
// rejecting until its cooldown elapses), so the executor's transient-retry
// loop does not spin on it; the job frontend degrades instead.
type OpenError struct{ Dep string }

func (e *OpenError) Error() string {
	return fmt.Sprintf("breaker: %s circuit open, request short-circuited", e.Dep)
}

// Breaker is one dependency's circuit breaker. Safe for concurrent use.
type Breaker struct {
	name      string
	threshold int
	cooldown  int64

	mu          sync.Mutex
	state       State
	consecutive int
	openedAt    int64

	opens          atomic.Int64
	shorts         atomic.Int64
	probes         atomic.Int64
	probeSuccesses atomic.Int64
	probeFailures  atomic.Int64
}

// New returns a Closed breaker named for its dependency. threshold is the
// consecutive-failure count that trips it (min 1); cooldown is how long it
// stays Open, in logical-clock seconds (min 1), before admitting a probe.
func New(name string, threshold int, cooldown int64) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown < 1 {
		cooldown = 1
	}
	return &Breaker{name: name, threshold: threshold, cooldown: cooldown}
}

// Name returns the dependency name the breaker guards.
func (b *Breaker) Name() string { return b.name }

// Allow reports whether a request may proceed at logical time now.
// Closed always admits. Open admits nothing until the cooldown elapses,
// then flips to HalfOpen and admits exactly one probe; while that probe is
// outstanding every other request is short-circuited. A rejected request
// increments the short-circuit counter — the caller should fail fast with
// an OpenError (or degrade) without touching the dependency.
func (b *Breaker) Allow(now int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if now >= b.openedAt+b.cooldown {
			b.state = HalfOpen
			b.probes.Add(1)
			return true // the probe
		}
	}
	b.shorts.Add(1)
	return false
}

// Ready is Allow without side effects: it reports whether a request at
// logical time now would be admitted, changing nothing. Planning code uses
// it to decide whether to take a dependency into a plan at all.
func (b *Breaker) Ready(now int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == Closed || (b.state == Open && now >= b.openedAt+b.cooldown)
}

// Observe reports the outcome of a request Allow admitted. In Closed
// state, a failure extends the consecutive-failure run (tripping Open at
// the threshold) and a success resets it. In HalfOpen state the outcome is
// the probe's verdict: success closes the breaker (counted in
// ProbeSuccesses), failure re-opens it for a fresh cooldown (counted in
// ProbeFailures). Outcomes arriving while Open — stragglers admitted
// before the trip — are ignored.
func (b *Breaker) Observe(now int64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if ok {
			b.consecutive = 0
			return
		}
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.trip(now)
		}
	case HalfOpen:
		if ok {
			b.state = Closed
			b.consecutive = 0
			b.probeSuccesses.Add(1)
			return
		}
		b.probeFailures.Add(1)
		b.trip(now)
	}
}

// trip moves the breaker to Open at time now. Callers hold b.mu.
func (b *Breaker) trip(now int64) {
	b.state = Open
	b.openedAt = now
	b.consecutive = 0
	b.opens.Add(1)
}

// State returns the current position without transitioning it (an Open
// breaker past its cooldown still reads Open until Allow admits a probe).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens counts Closed→Open and HalfOpen→Open transitions.
func (b *Breaker) Opens() int64 { return b.opens.Load() }

// ShortCircuits counts requests rejected without touching the dependency.
func (b *Breaker) ShortCircuits() int64 { return b.shorts.Load() }

// Probes counts half-open probes admitted after a cooldown;
// ProbeSuccesses and ProbeFailures count their observed outcomes (a probe
// whose caller never reports to Observe is admitted but has no outcome).
func (b *Breaker) Probes() int64         { return b.probes.Load() }
func (b *Breaker) ProbeSuccesses() int64 { return b.probeSuccesses.Load() }
func (b *Breaker) ProbeFailures() int64  { return b.probeFailures.Load() }
