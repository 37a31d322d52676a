package sizing

import (
	"errors"
	"math"
	"testing"

	"vodalloc/internal/analytic"
	"vodalloc/internal/dist"
	"vodalloc/internal/sim"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

func reserveCfg(b float64, n int) analytic.Config {
	return analytic.Config{L: 120, B: b, N: n, RatePB: 1, RateFF: 3, RateRW: 3}
}

func TestEstimateDedicatedArithmetic(t *testing.T) {
	profile := workload.MixedProfile(dist.MustGamma(2, 4), dist.MustExponential(15))
	est, err := EstimateDedicated(reserveCfg(60, 30), profile, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// g = 15 + 0.2·8 − 0.2·8 = 15 → Λ = 0.5·120/15 = 4 ops/min.
	if math.Abs(est.OpsPerMinute-4) > 1e-9 {
		t.Errorf("ops rate %g want 4", est.OpsPerMinute)
	}
	// Phase-1: 4·(0.2·8/3 + 0.2·8/3) ≈ 4.267 streams.
	if math.Abs(est.Phase1-4*(0.4*8.0/3)) > 1e-9 {
		t.Errorf("phase1 %g", est.Phase1)
	}
	if est.MissHold <= 0 || est.Total != est.Phase1+est.MissHold {
		t.Errorf("components inconsistent: %+v", est)
	}
	// Reservation quantiles grow with z and are at least the mean.
	r0 := est.ReserveFor(0)
	r2 := est.ReserveFor(2)
	if float64(r0) < est.Total || r2 <= r0 {
		t.Errorf("reservations %d, %d around mean %.2f", r0, r2, est.Total)
	}
}

func TestEstimateDedicatedHighHitNeedsLessReserve(t *testing.T) {
	// The paper's core economic claim: raising P(hit) shrinks the
	// required VCR reserve at identical workload.
	profile := workload.MixedProfile(dist.MustGamma(2, 4), dist.MustExponential(15))
	low, err := EstimateDedicated(reserveCfg(20, 50), profile, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	high, err := EstimateDedicated(reserveCfg(80, 20), profile, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !(high.Hit > low.Hit) {
		t.Fatalf("hit ordering wrong: %.3f vs %.3f", high.Hit, low.Hit)
	}
	if !(high.Total < low.Total) {
		t.Errorf("high-hit config should need fewer streams: %.2f vs %.2f", high.Total, low.Total)
	}
	if !(high.ReserveFor(2) < low.ReserveFor(2)) {
		t.Errorf("reservation ordering wrong: %d vs %d", high.ReserveFor(2), low.ReserveFor(2))
	}
}

func TestEstimateDedicatedValidatedBySimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("long validation runs")
	}
	profile := workload.MixedProfile(dist.MustGamma(2, 4), dist.MustExponential(15))
	for _, tc := range []struct {
		b float64
		n int
	}{{60, 30}, {90, 30}, {24, 12}} {
		cfg := reserveCfg(tc.b, tc.n)
		est, err := EstimateDedicated(cfg, profile, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(sim.Config{
			L: cfg.L, B: cfg.B, N: cfg.N,
			Rates:       vcr.Rates{PB: 1, FF: 3, RW: 3},
			ArrivalRate: 0.5,
			Profile:     profile,
			Horizon:     5000,
			Warmup:      500,
			Seed:        9,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(est.Total-res.AvgDedicated) / res.AvgDedicated
		if rel > 0.25 {
			t.Errorf("B=%g n=%d: estimate %.2f vs simulated %.2f (%.0f%% off)",
				tc.b, tc.n, est.Total, res.AvgDedicated, rel*100)
		}
		// The 2σ reservation should cover the simulated peak most of the
		// time; allow generous slack since the peak is an extreme value.
		if float64(res.PeakDedicated) > 2.0*float64(est.ReserveFor(3)) {
			t.Errorf("B=%g n=%d: peak %d dwarfs reservation %d",
				tc.b, tc.n, res.PeakDedicated, est.ReserveFor(3))
		}
	}
}

func TestEstimateDedicatedEdgeCases(t *testing.T) {
	profile := workload.MixedProfile(dist.MustGamma(2, 4), dist.MustExponential(15))
	// Non-interactive profile needs no streams.
	est, err := EstimateDedicated(reserveCfg(60, 30), vcr.Profile{}, 0.5)
	if err != nil || est.Total != 0 {
		t.Errorf("non-interactive: %+v, %v", est, err)
	}
	if est.ReserveFor(2) != 0 {
		t.Error("zero demand needs zero reserve")
	}
	// Invalid arrival rate.
	if _, err := EstimateDedicated(reserveCfg(60, 30), profile, 0); !errors.Is(err, ErrBadParam) {
		t.Error("zero lambda must fail")
	}
	// Invalid config.
	if _, err := EstimateDedicated(analytic.Config{}, profile, 0.5); err == nil {
		t.Error("invalid config must fail")
	}
	// A rewind-only profile with net-negative progress is rejected.
	backwards := vcr.Profile{
		PRW: 1, DurRW: dist.MustDeterministic(30), Think: dist.MustDeterministic(10),
	}
	if _, err := EstimateDedicated(reserveCfg(60, 30), backwards, 0.5); !errors.Is(err, ErrBadParam) {
		t.Errorf("no-progress profile: want ErrBadParam, got %v", err)
	}
}

func TestErlangBKnownValues(t *testing.T) {
	// Classic table values: B(1, 1) = 0.5; B(2, 1) = 0.2; B(5, 3) ≈ 0.11005.
	if got := ErlangB(1, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("B(1,1)=%g want 0.5", got)
	}
	if got := ErlangB(2, 1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("B(2,1)=%g want 0.2", got)
	}
	if got := ErlangB(5, 3); math.Abs(got-0.11005) > 1e-4 {
		t.Errorf("B(5,3)=%g want ≈0.11005", got)
	}
	// Edge cases.
	if ErlangB(0, 2) != 1 {
		t.Error("zero servers block everything")
	}
	if ErlangB(4, 0) != 0 {
		t.Error("no load, no blocking")
	}
	if !math.IsNaN(ErlangB(-1, 2)) || !math.IsNaN(ErlangB(2, -1)) {
		t.Error("invalid args should be NaN")
	}
	// Monotonicity: more servers, less blocking; more load, more blocking.
	for c := 1; c < 30; c++ {
		if ErlangB(c+1, 10) >= ErlangB(c, 10) {
			t.Fatalf("blocking not decreasing at c=%d", c)
		}
	}
	if ErlangB(10, 12) <= ErlangB(10, 8) {
		t.Error("blocking not increasing in load")
	}
}

func TestErlangBValidatedBySimulatedBlocking(t *testing.T) {
	if testing.Short() {
		t.Skip("long validation run")
	}
	// Cap the dedicated pool below the offered load and compare the
	// measured rejection fraction with Erlang-B. The simulator retries
	// blocked requests (it is not a pure loss system) and its offered
	// stream-requests are not Poisson, so agreement within a factor of
	// two is the expectation this test pins down.
	profile := workload.MixedProfile(dist.MustGamma(2, 4), dist.MustExponential(15))
	cfg := reserveCfg(24, 12) // low hit rate → heavy dedicated load
	est, err := EstimateDedicated(cfg, profile, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cap := int(est.Total * 0.85) // deliberately undersized
	s, err := sim.New(sim.Config{
		L: cfg.L, B: cfg.B, N: cfg.N,
		Rates:        vcr.Rates{PB: 1, FF: 3, RW: 3},
		ArrivalRate:  0.5,
		Profile:      profile,
		Horizon:      6000,
		Warmup:       600,
		Seed:         3,
		MaxDedicated: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	attempts := res.Hits.N() + res.BlockedOps
	if attempts == 0 || res.BlockedOps == 0 {
		t.Fatalf("no contention: attempts=%d blocked=%d", attempts, res.BlockedOps)
	}
	measured := float64(res.BlockedOps+res.BlockedResumes) / float64(attempts+res.BlockedResumes)
	predicted := ErlangB(cap, est.Total)
	ratio := measured / predicted
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("blocking: measured %.4f vs Erlang-B %.4f (ratio %.2f)", measured, predicted, ratio)
	}
}

// TestErlangBAgainstDirectFormula cross-checks the stable recurrence with
// the textbook expression B(c, a) = (a^c/c!) / Σ_{k≤c} a^k/k!.
func TestErlangBAgainstDirectFormula(t *testing.T) {
	direct := func(c int, a float64) float64 {
		term := 1.0 // a^0/0!
		sum := term
		for k := 1; k <= c; k++ {
			term *= a / float64(k)
			sum += term
		}
		return term / sum
	}
	for _, a := range []float64{0.5, 1, 3, 7.5, 20} {
		for c := 0; c <= 40; c++ {
			got := ErlangB(c, a)
			want := direct(c, a)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("B(%d, %g): recurrence %.15g vs direct %.15g", c, a, got, want)
			}
		}
	}
}

// ErlangB is the Erlang loss probability B(c, a), the reference the
// simulator's dedicated-pool blocking is checked against: the long-run
// fraction of requests rejected by a c-server loss system offered load
// a (erlangs). The M/G/c/c loss system is insensitive to the
// holding-time distribution; offered load is EstimateDedicated's Total
// and a "server" is one reserved stream. Computed with the numerically
// stable recurrence B(0)=1, B(k) = a·B(k−1) / (k + a·B(k−1)).
func ErlangB(servers int, load float64) float64 {
	if servers < 0 || math.IsNaN(load) || load < 0 {
		return math.NaN()
	}
	if load == 0 {
		if servers == 0 {
			return 1
		}
		return 0
	}
	b := 1.0
	for k := 1; k <= servers; k++ {
		b = load * b / (float64(k) + load*b)
	}
	return b
}
