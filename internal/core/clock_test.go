package core

import (
	"sync"
	"testing"
)

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Error("clock should start at 0")
	}
	c.AdvanceTo(5)
	if c.Now() != 5 {
		t.Errorf("now = %d", c.Now())
	}
	c.AdvanceTo(3) // past: ignored
	if c.Now() != 5 {
		t.Error("AdvanceTo went backwards")
	}
	c.AdvanceTo(10)
	if c.Now() != 10 {
		t.Errorf("now = %d", c.Now())
	}
}

// TestClockConcurrent: racing AdvanceTo calls leave the clock at the
// largest target, and no reader ever sees it behind a target its own
// goroutine already reached.
func TestClockConcurrent(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 1; j <= 100; j++ {
				target := int64(w*100 + j)
				c.AdvanceTo(target)
				if now := c.Now(); now < target {
					t.Errorf("now = %d after AdvanceTo(%d)", now, target)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Now() != 1000 {
		t.Errorf("now = %d, want 1000", c.Now())
	}
}
