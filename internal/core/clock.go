package core

import "sync"

// Clock is the service's simulated time in abstract seconds: the one
// shared timeline that build-lock TTLs, view expiry, deadlines and the
// dependency breakers' cooldowns run on. It only moves forward — a
// completed job advances it past its simulated finish time. The zero
// value starts at time 0 and is ready to use.
type Clock struct {
	mu  sync.Mutex
	now int64
}

// Now returns the current simulated time.
func (c *Clock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AdvanceTo moves the clock to t if t is in the future.
func (c *Clock) AdvanceTo(t int64) {
	c.mu.Lock()
	if t > c.now {
		c.now = t
	}
	c.mu.Unlock()
}
