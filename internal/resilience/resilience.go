// Package resilience collects the small, dependency-free primitives the
// serving stack uses to stay predictable under overload and partial
// failure: exponential backoff with jitter (shared by the simulator's
// degraded-mode retries and any wall-clock retry loop), a circuit
// breaker for fast-failing endpoints whose backends keep timing out, and
// a bulkhead semaphore that isolates one class of work from another.
//
// The types are deliberately unit-agnostic where they can be: Backoff
// computes delays as plain float64s so the discrete-event simulator can
// interpret them as simulated minutes while HTTP callers interpret them
// as seconds. Everything here is safe for concurrent use unless noted.
package resilience

import (
	"context"
	"time"
)

// Sleep blocks for d or until ctx is done, whichever comes first,
// returning ctx.Err() when interrupted and nil after a full sleep.
// Non-positive durations return immediately (after a cancellation
// check), so backoff chains can start at attempt zero with no delay.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
