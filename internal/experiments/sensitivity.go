package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"vodalloc/internal/analytic"
	"vodalloc/internal/dist"
	"vodalloc/internal/parallel"
	"vodalloc/internal/sim"
	"vodalloc/internal/vcr"
)

// The sensitivity experiment extends the paper's evaluation: the model
// claims to "accommodate a wide variety of probability distributions"
// (§1); here we hold the mean VCR duration fixed at the paper's 8
// minutes and swap the distribution family, measuring how much the
// shape (variance, tail) moves the hit probability — for the model and
// for the simulator.

// SensRow is one (family, operation) cell.
type SensRow struct {
	Family string
	CV     float64 // coefficient of variation of the duration
	Op     analytic.Op
	Model  float64
	Sim    float64
}

// sensFamilies returns equal-mean duration distributions of increasing
// variability. The Pareto uses tail index 2.2 (finite mean 8, infinite
// third moment).
func sensFamilies() []struct {
	name string
	d    dist.Distribution
} {
	const mean = 8
	ln, err := dist.LognormalFromMoments(mean, 1.5)
	if err != nil {
		panic(err)
	}
	pareto, err := dist.NewPareto(mean*(2.2-1)/2.2, 2.2)
	if err != nil {
		panic(err)
	}
	return []struct {
		name string
		d    dist.Distribution
	}{
		{"deterministic", dist.MustDeterministic(mean)},
		{"uniform[0,16]", dist.MustUniform(0, 2*mean)},
		{"gamma(2,4)", dist.MustGamma(2, 4)},
		{"exponential", dist.MustExponential(mean)},
		{"lognormal cv=1.5", ln},
		{"pareto α=2.2", pareto},
	}
}

// Sensitivity evaluates the hit probability across duration families at
// the §4 reference configuration (l=120, B=60, n=30), for each VCR
// operation, with a simulation counterpart. The family×op cells
// evaluate in parallel in table order.
func Sensitivity(o Options) ([]SensRow, error) {
	return SensitivityCtx(context.Background(), o)
}

// SensitivityCtx is Sensitivity with cancellation checkpoints.
func SensitivityCtx(ctx context.Context, o Options) ([]SensRow, error) {
	cfg := analytic.Config{L: movieLen, B: 60, N: 30,
		RatePB: paperRates.PB, RateFF: paperRates.FF, RateRW: paperRates.RW}
	model, err := analytic.New(cfg)
	if err != nil {
		return nil, err
	}

	think := dist.MustExponential(thinkMean)
	type cell struct {
		family string
		d      dist.Distribution
		cv     float64
		op     analytic.Op
		kind   vcr.Kind
	}
	var cells []cell
	for _, fam := range sensFamilies() {
		cv := math.NaN()
		if v, ok := fam.d.(dist.Varier); ok && !math.IsInf(v.Variance(), 1) {
			cv = math.Sqrt(v.Variance()) / fam.d.Mean()
		}
		for _, pair := range []struct {
			op   analytic.Op
			kind vcr.Kind
		}{{analytic.FF, vcr.FF}, {analytic.RW, vcr.RW}, {analytic.PAU, vcr.PAU}} {
			cells = append(cells, cell{family: fam.name, d: fam.d, cv: cv, op: pair.op, kind: pair.kind})
		}
	}
	rows, err := parallel.Map(ctx, o.par(), len(cells),
		func(ctx context.Context, i int) (SensRow, error) {
			c := cells[i]
			row := SensRow{Family: c.family, CV: c.cv, Op: c.op,
				Model: model.Hit(c.op, c.d)}
			s, err := sim.New(sim.Config{
				L: cfg.L, B: cfg.B, N: cfg.N,
				Rates:       paperRates,
				ArrivalRate: arrivalRate,
				Profile:     vcr.Uniform(c.kind, c.d, think),
				Horizon:     o.horizon(),
				Warmup:      o.warmup(),
				Seed:        o.seed(),
			})
			if err != nil {
				return SensRow{}, err
			}
			res, err := s.RunCtx(ctx)
			if err != nil {
				return SensRow{}, err
			}
			row.Sim = res.HitProbability()
			return row, nil
		})
	if err != nil {
		return nil, parallel.Cause(err)
	}
	return rows, nil
}

// PrintSensitivity renders the table.
func PrintSensitivity(w io.Writer, rows []SensRow) {
	fmt.Fprintln(w, "sensitivity — duration-distribution shape at fixed mean 8 min (l=120, B=60, n=30)")
	fmt.Fprintf(w, "  %-18s %6s %5s %9s %9s %9s\n", "family", "cv", "op", "model", "sim", "|Δ|")
	for _, r := range rows {
		cv := "∞"
		if !math.IsNaN(r.CV) {
			cv = fmt.Sprintf("%.2f", r.CV)
		}
		fmt.Fprintf(w, "  %-18s %6s %5s %9.4f %9.4f %9.4f\n",
			r.Family, cv, r.Op, r.Model, r.Sim, math.Abs(r.Model-r.Sim))
	}
}
