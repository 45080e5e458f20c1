// Package retry provides the capped, jittered exponential backoff shared by
// every supervised link in the system: the BGP feed and the cluster
// worker's coordinator link. Keeping one implementation means one
// set of properties to test — deterministic schedules under a seed, a hard
// cap, and jitter that spreads a fleet's re-dials so a recovering peer is
// not hit in lockstep.
package retry

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Backoff computes per-attempt delays: Initial doubles per consecutive
// failure up to Max, then holds there; each delay is then spread by
// ±Jitter. The zero value is not usable — construct with New.
type Backoff struct {
	initial time.Duration
	max     time.Duration
	jitter  float64

	mu  sync.Mutex
	rng *rand.Rand
}

// Defaults applied by New for zero parameters.
const (
	DefaultInitial = 200 * time.Millisecond
	DefaultMax     = 30 * time.Second
	DefaultJitter  = 0.1
)

// New builds a backoff schedule. Zero initial/max/jitter take the package
// defaults; a negative jitter disables jitter entirely. seed drives the
// jitter RNG, making schedules reproducible.
func New(initial, max time.Duration, jitter float64, seed int64) *Backoff {
	if initial <= 0 {
		initial = DefaultInitial
	}
	if max <= 0 {
		max = DefaultMax
	}
	switch {
	case jitter < 0:
		jitter = 0
	case jitter == 0:
		jitter = DefaultJitter
	}
	return &Backoff{
		initial: initial,
		max:     max,
		jitter:  jitter,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Next returns the jittered, capped delay before retry attempt+1 (attempt
// counts completed failures, starting at 1). The result is never below one
// millisecond, so a mis-tuned schedule cannot spin-dial.
func (b *Backoff) Next(attempt int) time.Duration {
	base := b.initial
	for i := 1; i < attempt && base < b.max; i++ {
		base *= 2
	}
	if base > b.max {
		base = b.max
	}
	if b.jitter > 0 {
		b.mu.Lock()
		f := 1 + (b.rng.Float64()*2-1)*b.jitter
		b.mu.Unlock()
		base = time.Duration(float64(base) * f)
	}
	if base < time.Millisecond {
		base = time.Millisecond
	}
	return base
}

// Sleep blocks for the attempt's delay or until the context is done,
// returning the context error in the latter case. It is the redial wait
// every supervised loop shares: backoff-paced, but immediately
// interruptible by shutdown.
func (b *Backoff) Sleep(ctx context.Context, attempt int) error {
	t := time.NewTimer(b.Next(attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
