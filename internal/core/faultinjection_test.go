package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"cloudviews/internal/data"
	"cloudviews/internal/plan"
)

// crashAtStep permanently crashes the failAt-th completing vertex.
type crashAtStep struct {
	failAt int64
	step   atomic.Int64
}

func (c *crashAtStep) VertexDone(_, _ string, _ plan.OpKind, _ int) error {
	if c.step.Add(1) == c.failAt {
		return errors.New("injected")
	}
	return nil
}

func (c *crashAtStep) VertexDelay(string, string, plan.OpKind) float64 { return 0 }

// TestRandomFailureInjection crashes jobs at random operators and checks
// the system's crash invariants after every failure:
//
//  1. metadata and storage stay consistent — every registered view has
//     its files and vice versa (modulo unregistered orphans, which only
//     the reclamation path creates),
//  2. progress is never wedged — a follow-up job by another submitter
//     either reuses a surviving view or wins the (released or expired)
//     build lock and builds it,
//  3. results stay correct — the follow-up job's output matches a clean
//     baseline execution.
func TestRandomFailureInjection(t *testing.T) {
	const rounds = 25
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		s := newService(t)
		s.Config.ValidateResults = false
		seedHistory(t, s)
		deliver(t, s.Catalog, 1)

		// Crash the builder at a uniformly random operator position: the
		// invariants must hold no matter where the crash lands.
		hook := &crashAtStep{failAt: int64(rng.Intn(10))}
		s.Exec.Faults = hook
		_, err := s.Run(context.Background(), specA(fmt.Sprintf("crash-%d", round), 1))
		s.Exec.Faults = nil
		crashed := err != nil

		// Invariant 1: store/metadata consistency.
		metaViews := s.Meta.Views()
		for _, mv := range metaViews {
			if _, serr := s.Store.Get(mv.Path); serr != nil {
				t.Fatalf("round %d: metadata references missing file %s", round, mv.Path)
			}
		}
		if s.Store.Len() < len(metaViews) {
			t.Fatalf("round %d: store (%d) lost views metadata still has (%d)",
				round, s.Store.Len(), len(metaViews))
		}

		// Invariant 2 + 3: a different submitter makes progress with
		// correct results.
		follow, err := s.Run(context.Background(), specB(fmt.Sprintf("follow-%d", round), 1))
		if err != nil {
			t.Fatalf("round %d (crashed=%v): follow-up failed: %v", round, crashed, err)
		}
		if len(follow.Decision.ViewsUsed)+len(follow.Decision.ViewsBuilt) == 0 {
			t.Fatalf("round %d: follow-up neither built nor reused (wedged lock?)", round)
		}
		baseline, err := s.runBaseline(specB("base", 1))
		if err != nil {
			t.Fatal(err)
		}
		if !data.RowsEqual(baseline.Outputs["activeUsers"], follow.Result.Outputs["activeUsers"]) {
			t.Fatalf("round %d: follow-up results corrupted", round)
		}
	}
}
