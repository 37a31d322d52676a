package analytic

import (
	"context"

	"vodalloc/internal/dist"
)

// This file holds the context-aware model entry points. The serving
// stack evaluates models under per-request wall-clock budgets; a
// canceled request must stop integrating promptly instead of finishing
// a doomed evaluation while holding a worker-pool token. Cancellation
// is checked once per partition of the scan and, on the quadrature
// path, once per quadrature panel (via quad.AutoPanelsCtx), so the
// latency bound is one partition's evaluation — microseconds on the
// paper's parameter ranges. The plain methods (HitFF, HitMix, …)
// delegate here with context.Background(), so both paths share one
// implementation and produce bit-identical results.

// HitFFCtx is HitFF with cancellation checkpoints; it returns ctx.Err()
// partway when the context is done.
func (m *Model) HitFFCtx(ctx context.Context, d dist.Distribution) (float64, error) {
	return m.HitCtx(ctx, FF, d)
}

// HitRWCtx is HitRW with cancellation checkpoints.
func (m *Model) HitRWCtx(ctx context.Context, d dist.Distribution) (float64, error) {
	return m.HitCtx(ctx, RW, d)
}

// HitPAUCtx is HitPAU with cancellation checkpoints.
func (m *Model) HitPAUCtx(ctx context.Context, d dist.Distribution) (float64, error) {
	return m.HitCtx(ctx, PAU, d)
}

// HitCtx is Hit with cancellation checkpoints. The partition terms and
// P(end) are each exact up to rounding, but their float sum can poke
// past 1 by ~1e-15 when both saturate (B = L with a short-tailed
// duration), so the result is clamped to [0, 1].
func (m *Model) HitCtx(ctx context.Context, op Op, d dist.Distribution) (float64, error) {
	v, err := m.opSum(ctx, op, d, nil)
	if err != nil {
		return 0, err
	}
	return clampProb(v), nil
}

// HitMixCtx is HitMix with cancellation checkpoints: the context is
// consulted per partition inside each operation's scan, so a canceled
// evaluation stops within one partition.
func (m *Model) HitMixCtx(ctx context.Context, x Mix) (float64, error) {
	if err := x.Validate(); err != nil {
		return 0, err
	}
	var ff, rw, pau float64
	var err error
	if x.PFF > 0 {
		if ff, err = m.HitFFCtx(ctx, x.FF); err != nil {
			return 0, err
		}
	}
	if x.PRW > 0 {
		if rw, err = m.HitRWCtx(ctx, x.RW); err != nil {
			return 0, err
		}
	}
	if x.PPAU > 0 {
		if pau, err = m.HitPAUCtx(ctx, x.PAU); err != nil {
			return 0, err
		}
	}
	return x.Combine(ff, rw, pau), nil
}
