package vodalloc_test

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// piggyback miss-fallback, the quadrature resolution of the analytic
// model, the closed-form G(x)=∫F specialization, the δ buffer reserve,
// and the robustness of the model's uniform-position assumption across
// arrival rates. Each reports the quantity the ablation moves as a
// benchmark metric.

import (
	"fmt"
	"math"
	"testing"

	"vodalloc"
	"vodalloc/internal/analytic"
	"vodalloc/internal/dist"
	"vodalloc/internal/sim"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

func ablationSimConfig(seed int64) sim.Config {
	gam := dist.MustGamma(2, 4)
	think := dist.MustExponential(10)
	return sim.Config{
		L: 120, B: 24, N: 12, // low hit probability → many misses
		Rates:       vcr.Rates{PB: 1, FF: 3, RW: 3},
		ArrivalRate: 0.5,
		Profile:     workload.MixedProfile(gam, think),
		Horizon:     2500,
		Warmup:      300,
		Seed:        seed,
	}
}

// BenchmarkAblationPiggyback sweeps the piggyback slew fraction (0 =
// disabled) and reports the average dedicated-stream occupancy each
// policy leaves behind — the resource the paper economizes.
func BenchmarkAblationPiggyback(b *testing.B) {
	for _, slew := range []float64{0, 0.02, 0.05, 0.10} {
		name := fmt.Sprintf("slew=%.2f", slew)
		b.Run(name, func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				cfg := ablationSimConfig(int64(i + 1))
				cfg.Piggyback = slew > 0
				cfg.Slew = slew
				s, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				avg = res.AvgDedicated
			}
			b.ReportMetric(avg, "avgDedicated")
		})
	}
}

// BenchmarkAblationGridG compares the closed-form G(x)=∫₀ˣF path with
// the generic precomputed-grid fallback on the same distribution (the
// concrete type hidden), reporting their disagreement.
func BenchmarkAblationGridG(b *testing.B) {
	m := analytic.MustNew(analytic.Config{L: 120, B: 60, N: 30, RatePB: 1, RateFF: 3, RateRW: 3})
	exp := dist.MustExponential(8)
	closed := m.HitFF(exp)
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m.HitFF(exp)
		}
	})
	b.Run("grid-fallback", func(b *testing.B) {
		var got float64
		for i := 0; i < b.N; i++ {
			got = m.HitFF(hidden{exp})
		}
		b.ReportMetric(math.Abs(got-closed), "absErr")
	})
}

// hidden masks a distribution's concrete type so the model takes the
// generic grid path.
type hidden struct{ dist.Distribution }

// BenchmarkAblationDelta sweeps the per-partition reserve δ and reports
// the buffer peak it adds — the B′ = B + nδ accounting of §3.1.
func BenchmarkAblationDelta(b *testing.B) {
	for _, delta := range []float64{0, 0.25, 0.5} {
		b.Run(fmt.Sprintf("delta=%.2f", delta), func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				cfg := ablationSimConfig(int64(i + 1))
				cfg.Delta = delta
				s, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				peak = res.BufferPeak
			}
			b.ReportMetric(peak, "bufferPeak")
		})
	}
}

// BenchmarkAblationArrivalRate probes the model's uniform-position
// assumption: the analytic P(hit) ignores λ entirely, so the measured
// model-vs-sim error across arrival rates quantifies how much that
// assumption costs.
func BenchmarkAblationArrivalRate(b *testing.B) {
	gam := dist.MustGamma(2, 4)
	model := analytic.MustNew(analytic.Config{L: 120, B: 60, N: 30, RatePB: 1, RateFF: 3, RateRW: 3})
	want, err := model.HitMix(analytic.Mix{PFF: 0.2, PRW: 0.2, PPAU: 0.6, FF: gam, RW: gam, PAU: gam})
	if err != nil {
		b.Fatal(err)
	}
	for _, lambda := range []float64{0.1, 0.5, 2.0} {
		b.Run(fmt.Sprintf("lambda=%.1f", lambda), func(b *testing.B) {
			var gap float64
			for i := 0; i < b.N; i++ {
				res, err := vodalloc.Simulate(vodalloc.SimConfig{
					L: 120, B: 60, N: 30,
					Rates:       vodalloc.Rates{PB: 1, FF: 3, RW: 3},
					ArrivalRate: lambda,
					Profile:     workload.MixedProfile(gam, dist.MustExponential(15)),
					Horizon:     2500,
					Warmup:      300,
					Seed:        int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				gap = math.Abs(res.HitProbability() - want)
			}
			b.ReportMetric(gap, "absErrVsModel")
		})
	}
}
