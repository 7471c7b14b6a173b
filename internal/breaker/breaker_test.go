package breaker

import (
	"errors"
	"sync"
	"testing"
)

func TestBreakerTripsAtThreshold(t *testing.T) {
	b := New("dep", 3, 10)
	if b.State() != Closed {
		t.Fatalf("new breaker state = %v, want closed", b.State())
	}
	for i := 0; i < 2; i++ {
		if !b.Allow(0) {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.Observe(0, false)
	}
	if b.State() != Closed {
		t.Fatalf("state after 2/3 failures = %v, want closed", b.State())
	}
	if !b.Allow(0) {
		t.Fatal("closed breaker rejected request at threshold-1")
	}
	b.Observe(5, false)
	if b.State() != Open {
		t.Fatalf("state after 3/3 failures = %v, want open", b.State())
	}
	if got := b.Opens(); got != 1 {
		t.Fatalf("Opens = %d, want 1", got)
	}
}

func TestBreakerSuccessResetsRun(t *testing.T) {
	b := New("dep", 3, 10)
	b.Observe(0, false)
	b.Observe(0, false)
	b.Observe(0, true) // resets the consecutive-failure run
	b.Observe(0, false)
	b.Observe(0, false)
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed (run was reset)", b.State())
	}
	b.Observe(0, false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
}

func TestBreakerShortCircuitsWhileOpen(t *testing.T) {
	b := New("dep", 1, 10)
	b.Observe(0, false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	for now := int64(1); now < 10; now++ {
		if b.Allow(now) {
			t.Fatalf("open breaker admitted a request at t=%d (cooldown ends at 10)", now)
		}
	}
	if got := b.ShortCircuits(); got != 9 {
		t.Fatalf("ShortCircuits = %d, want 9", got)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b := New("dep", 1, 10)
	b.Observe(0, false) // open at t=0

	if !b.Ready(10) {
		t.Fatal("Ready(10) = false, want true (cooldown elapsed)")
	}
	if b.State() != Open {
		t.Fatal("Ready must not transition state")
	}
	if !b.Allow(10) {
		t.Fatal("breaker rejected the half-open probe at cooldown expiry")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// While the probe is outstanding, everything else short-circuits.
	if b.Allow(11) {
		t.Fatal("half-open breaker admitted a second request")
	}
	// Probe failure re-opens for a fresh cooldown from its observation time.
	b.Observe(12, false)
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if b.Allow(20) {
		t.Fatal("re-opened breaker admitted a request before the fresh cooldown (ends at 22)")
	}
	if !b.Allow(22) {
		t.Fatal("breaker rejected the second probe after the fresh cooldown")
	}
	// Probe success closes the breaker.
	b.Observe(22, true)
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if !b.Allow(23) {
		t.Fatal("closed breaker rejected a request")
	}
	if got := b.Opens(); got != 2 {
		t.Fatalf("Opens = %d, want 2", got)
	}
}

func TestBreakerIgnoresStragglersWhileOpen(t *testing.T) {
	b := New("dep", 2, 100)
	if !b.Allow(0) || !b.Allow(0) || !b.Allow(0) {
		t.Fatal("closed breaker rejected requests")
	}
	b.Observe(0, false)
	b.Observe(0, false) // trips
	// A straggler success from a request admitted before the trip must not
	// close the breaker.
	b.Observe(1, true)
	if b.State() != Open {
		t.Fatalf("state after straggler success = %v, want open", b.State())
	}
}

func TestBreakerParamFloors(t *testing.T) {
	b := New("dep", 0, 0)
	b.Observe(0, false) // threshold floored to 1
	if b.State() != Open {
		t.Fatalf("state = %v, want open with threshold floor 1", b.State())
	}
	if !b.Allow(1) { // cooldown floored to 1
		t.Fatal("breaker rejected probe after floored cooldown")
	}
}

func TestOpenErrorMessage(t *testing.T) {
	err := error(&OpenError{Dep: "metadata"})
	var oe *OpenError
	if !errors.As(err, &oe) || oe.Dep != "metadata" {
		t.Fatalf("errors.As failed on %v", err)
	}
	if want := "breaker: metadata circuit open, request short-circuited"; err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}

func TestBreakerConcurrent(t *testing.T) {
	// Race-detector exercise: concurrent Allow/Observe/State/counters must
	// be safe; the breaker must end in a consistent state (open, since every
	// outcome is a failure).
	b := New("dep", 5, 3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now := int64(0); now < 200; now++ {
				if b.Allow(now) {
					b.Observe(now, false)
				}
				_ = b.State()
				_ = b.Opens()
				_ = b.ShortCircuits()
				_ = b.Ready(now)
			}
		}()
	}
	wg.Wait()
	if b.State() != Open {
		t.Fatalf("state = %v, want open after all-failure traffic", b.State())
	}
	if b.Opens() == 0 {
		t.Fatal("Opens = 0, want > 0")
	}
}

// TestBreakerProbeCounters pins the half-open probe accounting: every
// probe admitted after a cooldown is counted, and its observed outcome
// lands in exactly one of ProbeSuccesses/ProbeFailures. Earlier versions
// counted opens only, so dashboards could not tell "still failing at
// every probe" from "never probed at all". Each transition is checked
// through the counters it moves.
func TestBreakerProbeCounters(t *testing.T) {
	b := New("dep", 1, 10)
	type counts struct {
		state                                        State
		opens, probes, probeSuccesses, probeFailures int64
	}
	steps := []struct {
		name string
		do   func()
		want counts
	}{
		{"closed>open", func() { b.Observe(0, false) }, counts{Open, 1, 0, 0, 0}},
		{"open>half-open", func() {
			if !b.Allow(10) {
				t.Fatal("probe 1 rejected")
			}
		}, counts{HalfOpen, 1, 1, 0, 0}},
		{"half-open>open", func() { b.Observe(10, false) }, counts{Open, 2, 1, 0, 1}},
		{"open>half-open", func() {
			if !b.Allow(20) {
				t.Fatal("probe 2 rejected")
			}
		}, counts{HalfOpen, 2, 2, 0, 1}},
		{"half-open>closed", func() { b.Observe(20, true) }, counts{Closed, 2, 2, 1, 1}},
	}
	for i, st := range steps {
		st.do()
		got := counts{b.State(), b.Opens(), b.Probes(), b.ProbeSuccesses(), b.ProbeFailures()}
		if got != st.want {
			t.Fatalf("step %d (%s): got %+v, want %+v", i, st.name, got, st.want)
		}
	}
}
