package fault

import (
	"errors"
	"testing"

	"cloudviews/internal/plan"
)

// TestDeterministicDecisions pins the core property: decisions are a pure
// function of (seed, kind, site, occurrence), independent of call order.
func TestDeterministicDecisions(t *testing.T) {
	cfg := Config{Seed: 42, VertexCrash: 0.5}
	sites := []string{"0/Extract", "1/Filter", "2/HashJoin", "3/HashGbAgg", "4/Output"}
	type key struct {
		site    string
		attempt int
	}
	// a visits sites forward, b backward: per-site outcomes must match —
	// the vertex decision depends only on (seed, site, attempt), never on
	// the order the scheduler happened to reach the sites in.
	collect := func(reverse bool) map[key]bool {
		in := NewInjector(cfg)
		out := map[key]bool{}
		for attempt := 0; attempt < 4; attempt++ {
			for i := range sites {
				s := sites[i]
				if reverse {
					s = sites[len(sites)-1-i]
				}
				out[key{s, attempt}] = in.VertexDone("job", s, plan.OpFilter, attempt) != nil
			}
		}
		return out
	}
	a, b := collect(false), collect(true)
	fired := 0
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("site %s attempt %d: outcome depends on visit order", k.site, k.attempt)
		}
		if v {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("p=0.5 over 20 sites fired nothing")
	}
}

// TestSeedChangesSchedule verifies different seeds produce different
// schedules (the injector is not degenerate).
func TestSeedChangesSchedule(t *testing.T) {
	outcomes := func(seed int64) []bool {
		in := NewInjector(Config{Seed: seed, VertexCrash: 0.5})
		var out []bool
		for i := 0; i < 64; i++ {
			site := string(rune('a'+i%26)) + "/op"
			out = append(out, in.VertexDone("j", site, plan.OpFilter, i/26) != nil)
		}
		return out
	}
	a, b := outcomes(1), outcomes(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

// TestRatesApproximate checks the decision hash is roughly uniform: at
// p=0.25 over many sites the firing rate lands in a wide sane band.
func TestRatesApproximate(t *testing.T) {
	in := NewInjector(Config{Seed: 7, StorageRead: 0.25})
	const n = 4000
	fired := 0
	for i := 0; i < n; i++ {
		if in.ReadView("/views/sig/"+string(rune('a'+i%26))+".ss") != nil {
			fired++
		}
	}
	rate := float64(fired) / n
	if rate < 0.18 || rate > 0.32 {
		t.Fatalf("rate %.3f far from 0.25", rate)
	}
	if got := in.Counts().StorageReads; got != int64(fired) {
		t.Fatalf("counter %d != observed %d", got, fired)
	}
}

// TestZeroConfigNeverFires: an injector with zero probabilities is inert.
func TestZeroConfigNeverFires(t *testing.T) {
	in := NewInjector(Config{Seed: 3})
	for i := 0; i < 100; i++ {
		if in.VertexDone("j", "0/Filter", plan.OpFilter, i) != nil {
			t.Fatal("crash fired at p=0")
		}
		if in.ReadView("/p") != nil {
			t.Fatal("read fault fired at p=0")
		}
		if _, err := in.WriteView("/p"); err != nil {
			t.Fatal("write fault fired at p=0")
		}
		if in.Lookup("vc") != nil {
			t.Fatal("blackout fired at p=0")
		}
		if in.VertexDelay("j", "0/Filter", plan.OpFilter) != 0 {
			t.Fatal("slow fired at p=0")
		}
	}
	if in.Counts() != (Counts{}) {
		t.Fatal("counters moved at p=0")
	}
}

// TestInjectedErrorsAreTransient: the executor's retry loop keys off the
// Transient marker; every injected error must carry it, even wrapped.
func TestInjectedErrorsAreTransient(t *testing.T) {
	err := error(&Error{Kind: KindStorageRead, Site: "/p"})
	wrapped := errors.Join(errors.New("ctx"), err)
	var tr interface{ Transient() bool }
	if !errors.As(wrapped, &tr) || !tr.Transient() {
		t.Fatal("injected error lost its Transient marker when wrapped")
	}
}

// TestRetryReRolls: a site that fires at attempt 0 must be able to pass at
// a later attempt — otherwise retries could never succeed.
func TestRetryReRolls(t *testing.T) {
	in := NewInjector(Config{Seed: 11, VertexCrash: 0.5})
	recoveredSomewhere := false
	for i := 0; i < 50; i++ {
		site := "s" + string(rune('a'+i))
		if in.VertexDone("j", site, plan.OpFilter, 0) != nil &&
			in.VertexDone("j", site, plan.OpFilter, 1) == nil {
			recoveredSomewhere = true
		}
	}
	if !recoveredSomewhere {
		t.Fatal("no site recovered on attempt 1 — retries would be futile")
	}
}
