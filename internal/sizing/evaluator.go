package sizing

import (
	"context"
	"fmt"
	"math"
	"sync"

	"vodalloc/internal/parallel"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

// Evaluator runs the sizing computations with a configurable parallelism
// budget and a memoized model-evaluation cache. The frontier sweeps
// (FeasibleByBufferStep), plan searches (MaxFeasibleStreams,
// MinBufferPlan) and cost curves all reduce to many independent hitAt
// evaluations; the Evaluator fans them out over a bounded worker pool
// with order-preserving results — so parallel output is byte-identical
// to sequential — and caches each (L, B, N, rates, mix) evaluation so
// repeated points during search and across sweeps never re-integrate.
//
// The zero value is ready to use: all CPUs, no shared pool, empty cache.
// An Evaluator is safe for concurrent use.
type Evaluator struct {
	// Workers caps the goroutines per sweep; <= 0 selects GOMAXPROCS.
	// Workers=1 reproduces the fully sequential order of operations.
	Workers int
	// Pool, when non-nil, bounds in-flight evaluations across every
	// sweep sharing it (e.g. concurrent HTTP plan requests).
	Pool *parallel.Pool

	mu    sync.Mutex
	cache map[evalKey]float64
	// hits/misses count hitAt lookups for the /statusz gauges; savedAt
	// and saving throttle AutoSave (see cache.go).
	hits, misses uint64
	autoPath     string
	autoEvery    int
	savedAt      int
	saving       bool
}

// Default is the process-wide evaluator behind the package-level
// FeasibleByBufferStep, MaxFeasibleStreams, MinBufferPlan and CostCurve
// functions. Long-lived processes sharing sweeps over one catalog (the
// experiment driver, the HTTP service's default mux) benefit from its
// shared cache; set Workers before starting work to pin parallelism.
var Default = &Evaluator{}

// evalKey identifies one model evaluation. The mix string fingerprints
// the movie's VCR profile (type + parameters of each duration
// distribution), making equal-profile movies share cache entries. The
// float fields are quantized (see quantize) so arithmetically-equal
// points reached along different float paths — a frontier walked by
// index versus by accumulation — share one entry instead of near-miss
// duplicates.
type evalKey struct {
	l, b  float64
	n     int
	rates Rates
	mix   string
}

// quantize rounds a key coordinate to 1e-6: coarse enough to merge
// float-drift duplicates (~1e-12 apart), fine enough that genuinely
// distinct sweep points (≥ 1e-2 apart in practice) never collide.
// Evaluations still run at the caller's exact coordinates; only the
// cache key is rounded.
func quantize(x float64) float64 {
	return math.Round(x*1e6) / 1e6
}

// maxCacheEntries bounds the memo cache; at ~100 bytes per entry the cap
// is a few tens of MB. On overflow the cache resets rather than evicting
// — sweeps are bursty and re-warm in one pass.
const maxCacheEntries = 1 << 18

// mixKey fingerprints a profile's duration mix for the cache. %+v on the
// concrete distribution values captures their parameters; %T
// disambiguates families with identical fields.
func mixKey(p vcr.Profile) string {
	return fmt.Sprintf("%v/%v/%v|%T%+v|%T%+v|%T%+v",
		p.PFF, p.PRW, p.PPAU, p.DurFF, p.DurFF, p.DurRW, p.DurRW, p.DurPAU, p.DurPAU)
}

func (e *Evaluator) opts() parallel.Opts {
	return parallel.Opts{Workers: e.Workers, Pool: e.Pool}
}

// hitAt evaluates the model at (n, b) for the movie's mix, consulting
// the cache first. key must be mixKey(m.Profile). A done context stops
// the evaluation within one quadrature panel (cache hits still return
// their value — the work is already paid for).
func (e *Evaluator) hitAt(ctx context.Context, m workload.Movie, r Rates, key string, n int, b float64) (float64, error) {
	k := evalKey{l: quantize(m.Length), b: quantize(b), n: n, rates: r, mix: key}
	e.mu.Lock()
	if v, ok := e.cache[k]; ok {
		e.hits++
		e.mu.Unlock()
		return v, nil
	}
	e.misses++
	e.mu.Unlock()
	hit, err := hitAt(ctx, m, r, n, b)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	if e.cache == nil {
		e.cache = make(map[evalKey]float64)
	} else if len(e.cache) >= maxCacheEntries {
		clear(e.cache)
		e.savedAt = 0
	}
	e.cache[k] = hit
	e.maybeAutoSaveLocked()
	e.mu.Unlock()
	return hit, nil
}

// FeasibleByBufferStep enumerates (B, n) pairs along the movie's
// wait-constrained frontier B = l − n·w at the given buffer step
// (Figure 8 uses 5-minute steps), marking which meet the hit target.
// Off-grid B values are snapped to the nearest integer stream count.
// Grid positions are computed from an integer index (b = i·step), so
// long frontiers do not accumulate float drift; points are evaluated in
// parallel and returned in ascending-B order.
func (e *Evaluator) FeasibleByBufferStep(m workload.Movie, r Rates, step float64) ([]Point, error) {
	return e.FeasibleByBufferStepCtx(context.Background(), m, r, step)
}

// FeasibleByBufferStepCtx is FeasibleByBufferStep with cancellation
// checkpoints: the context is threaded into the worker fan-out (no new
// grid points start once it is done) and into each model evaluation
// (which stops within one quadrature panel).
func (e *Evaluator) FeasibleByBufferStepCtx(ctx context.Context, m workload.Movie, r Rates, step float64) ([]Point, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if !(step > 0) {
		return nil, fmt.Errorf("%w: step %v", ErrBadParam, step)
	}
	// Count the grid points first: the frontier ends where the snapped
	// stream count falls below 1 or b passes the movie length.
	gridN := func(i int) int {
		return int(math.Round((m.Length - float64(i)*step) / m.Wait))
	}
	npts := 0
	for ; float64(npts)*step <= m.Length+1e-9 && gridN(npts) >= 1; npts++ {
	}
	if npts == 0 {
		return nil, nil
	}
	key := mixKey(m.Profile)
	pts, err := parallel.Map(ctx, e.opts(), npts,
		func(ctx context.Context, i int) (Point, error) {
			n := gridN(i)
			bb := m.Length - float64(n)*m.Wait // snap to integer n
			if bb < 0 {
				bb = 0
			}
			hit, err := e.hitAt(ctx, m, r, key, n, bb)
			if err != nil {
				return Point{}, err
			}
			return Point{N: n, B: bb, Hit: hit, Feasible: hit >= m.TargetHit}, nil
		})
	if err != nil {
		return nil, parallel.Cause(err)
	}
	return pts, nil
}

// MaxFeasibleStreams returns the largest stream count n (and the
// corresponding B = l − n·w) whose predicted hit probability still meets
// the movie's target. The hit probability decreases along the
// constant-wait frontier as n grows (buffer shrinks — see DESIGN §12 for
// the monotonicity argument), so the feasibility boundary is found by a
// frontier walk: gallop upward in doubling steps until the first
// infeasible probe brackets the boundary, then bisect inside the
// bracket. The walk costs O(log n*) evaluations concentrated near the
// answer n* — unlike plain bisection over [1, nMax] it never evaluates
// the far-infeasible tail (whose tiny-B models are the most expensive to
// integrate), and small answers cost only a handful of probes. The
// exhaustive scan survives as maxFeasibleLinear, the oracle the property
// tests cross-check the walk against.
func (e *Evaluator) MaxFeasibleStreams(m workload.Movie, r Rates) (Point, error) {
	return e.MaxFeasibleStreamsCtx(context.Background(), m, r)
}

// MaxFeasibleStreamsCtx is MaxFeasibleStreams with cancellation
// checkpoints: each probe consults the context, so a canceled search
// returns within one model evaluation.
func (e *Evaluator) MaxFeasibleStreamsCtx(ctx context.Context, m workload.Movie, r Rates) (Point, error) {
	if err := m.Validate(); err != nil {
		return Point{}, err
	}
	nMax := int(math.Floor(m.Length / m.Wait))
	if nMax < 1 {
		return Point{}, fmt.Errorf("%w: movie %q admits no streams", ErrInfeasible, m.Name)
	}
	key := mixKey(m.Profile)
	eval := func(n int) (Point, error) {
		b := math.Max(0, m.Length-float64(n)*m.Wait)
		hit, err := e.hitAt(ctx, m, r, key, n, b)
		if err != nil {
			return Point{}, err
		}
		return Point{N: n, B: b, Hit: hit, Feasible: hit >= m.TargetHit}, nil
	}
	lo, err := eval(1)
	if err != nil {
		return Point{}, err
	}
	if !lo.Feasible {
		return Point{}, fmt.Errorf("%w: movie %q cannot reach P*=%.3f even with n=1 (hit %.3f)",
			ErrInfeasible, m.Name, m.TargetHit, lo.Hit)
	}
	// Gallop: double the probe until it turns infeasible (bracketing the
	// boundary) or reaches a feasible nMax (the answer outright).
	loN, best := 1, lo
	hiN := nMax + 1
	for probe := 2; probe <= nMax; probe *= 2 {
		p, err := eval(probe)
		if err != nil {
			return Point{}, err
		}
		if !p.Feasible {
			hiN = probe
			break
		}
		loN, best = probe, p
		if probe == nMax {
			return best, nil
		}
	}
	if hiN > nMax {
		// The gallop's last sub-nMax probe was feasible; the boundary
		// lies in (loN, nMax].
		p, err := eval(nMax)
		if err != nil {
			return Point{}, err
		}
		if p.Feasible {
			return p, nil
		}
		hiN = nMax
	}
	// Bisect the bracket: loN feasible, hiN infeasible throughout.
	for hiN-loN > 1 {
		mid := (loN + hiN) / 2
		p, err := eval(mid)
		if err != nil {
			return Point{}, err
		}
		if p.Feasible {
			loN, best = mid, p
		} else {
			hiN = mid
		}
	}
	return best, nil
}

// MinBufferPlan computes the paper's §5 constrained optimization: the
// minimum-total-buffer allocation meeting every movie's (w_i, P*_i)
// targets, subject to Σn_i ≤ maxStreams and ΣB_i ≤ maxBuffer (pass 0 to
// leave a budget unconstrained). Per-movie frontier searches run in
// parallel. When the stream budget binds, streams are removed from the
// movies with the smallest w_i first — each removed stream costs w_i
// extra buffer minutes (Eq. 2), so this greedy order is buffer-optimal
// for the linear tradeoff.
func (e *Evaluator) MinBufferPlan(movies []workload.Movie, r Rates, maxStreams int, maxBuffer float64) (Plan, error) {
	return e.MinBufferPlanCtx(context.Background(), movies, r, maxStreams, maxBuffer)
}

// MinBufferPlanCtx is MinBufferPlan with cancellation checkpoints: the
// context is threaded into the per-movie fan-out and every model
// evaluation under it, so a canceled plan request frees its workers
// within one evaluation.
func (e *Evaluator) MinBufferPlanCtx(ctx context.Context, movies []workload.Movie, r Rates, maxStreams int, maxBuffer float64) (Plan, error) {
	if len(movies) == 0 {
		return Plan{}, fmt.Errorf("%w: empty catalog", ErrBadParam)
	}
	var plan Plan
	points, err := parallel.Map(ctx, e.opts(), len(movies),
		func(ctx context.Context, i int) (Point, error) {
			return e.MaxFeasibleStreamsCtx(ctx, movies[i], r)
		})
	if err != nil {
		return Plan{}, parallel.Cause(err)
	}
	for _, p := range points {
		plan.TotalStreams += p.N
		plan.TotalBuffer += p.B
	}

	// Stream budget: shed streams from the cheapest-w movies first.
	if maxStreams > 0 && plan.TotalStreams > maxStreams {
		deficit := plan.TotalStreams - maxStreams
		order := sortByWait(movies)
		for _, i := range order {
			if deficit == 0 {
				break
			}
			give := points[i].N - 1 // keep at least one stream per movie
			if give > deficit {
				give = deficit
			}
			if give <= 0 {
				continue
			}
			points[i].N -= give
			added := float64(give) * movies[i].Wait
			points[i].B += added
			plan.TotalBuffer += added
			plan.TotalStreams -= give
			deficit -= give
			// Re-evaluate the hit at the new point (it only improves:
			// larger B at fixed w).
			hit, err := e.hitAt(ctx, movies[i], r, mixKey(movies[i].Profile), points[i].N, points[i].B)
			if err != nil {
				return Plan{}, err
			}
			points[i].Hit = hit
		}
		if deficit > 0 {
			return Plan{}, fmt.Errorf("%w: stream budget %d below the %d-movie minimum",
				ErrInfeasible, maxStreams, len(movies))
		}
	}

	if maxBuffer > 0 && plan.TotalBuffer > maxBuffer+1e-9 {
		return Plan{}, fmt.Errorf("%w: minimum buffer %.1f exceeds budget %.1f",
			ErrInfeasible, plan.TotalBuffer, maxBuffer)
	}

	plan.Allocs = make([]Allocation, len(movies))
	for i, m := range movies {
		plan.Allocs[i] = Allocation{
			Movie: m.Name, N: points[i].N, B: points[i].B,
			Hit: points[i].Hit, Wait: m.Wait,
		}
	}
	return plan, nil
}
