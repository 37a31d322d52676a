package analytic

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vodalloc/internal/dist"
)

// paperRates are the §4 experiment rates: FF and RW at 3× playback.
const (
	ratePB = 1.0
	rateFF = 3.0
	rateRW = 3.0
)

func cfg(l, b float64, n int) Config {
	return Config{L: l, B: b, N: n, RatePB: ratePB, RateFF: rateFF, RateRW: rateRW}
}

func TestConfigValidate(t *testing.T) {
	good := cfg(120, 40, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{L: 0, B: 0, N: 1, RatePB: 1, RateFF: 3, RateRW: 3},
		{L: -5, B: 0, N: 1, RatePB: 1, RateFF: 3, RateRW: 3},
		{L: 100, B: -1, N: 1, RatePB: 1, RateFF: 3, RateRW: 3},
		{L: 100, B: 101, N: 1, RatePB: 1, RateFF: 3, RateRW: 3},
		{L: 100, B: 50, N: 0, RatePB: 1, RateFF: 3, RateRW: 3},
		{L: 100, B: 50, N: 5, RatePB: 0, RateFF: 3, RateRW: 3},
		{L: 100, B: 50, N: 5, RatePB: 1, RateFF: 1, RateRW: 3}, // FF must exceed PB
		{L: 100, B: 50, N: 5, RatePB: 1, RateFF: 3, RateRW: 0},
		{L: math.NaN(), B: 0, N: 1, RatePB: 1, RateFF: 3, RateRW: 3},
	}
	for i, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: want ErrBadConfig, got %v", i, err)
		}
	}
}

func TestCatchUpFactorsEq1(t *testing.T) {
	c := cfg(120, 40, 10)
	// α = R_FF/(R_FF − R_PB) = 3/2; γ = R_RW/(R_PB + R_RW) = 3/4.
	if got := c.Alpha(); math.Abs(got-1.5) > 1e-15 {
		t.Errorf("alpha = %g want 1.5", got)
	}
	if got := c.GammaRW(); math.Abs(got-0.75) > 1e-15 {
		t.Errorf("gamma = %g want 0.75", got)
	}
}

func TestWaitIdentityEq2(t *testing.T) {
	c := cfg(120, 40, 10)
	if got := c.Wait(); math.Abs(got-8) > 1e-12 {
		t.Errorf("wait = %g want 8", got)
	}
	if got := c.PartitionSize(); math.Abs(got-4) > 1e-12 {
		t.Errorf("partition = %g want 4", got)
	}
	if got := c.RestartInterval(); math.Abs(got-12) > 1e-12 {
		t.Errorf("restart = %g want 12", got)
	}
}

func TestFromWaitRoundTrip(t *testing.T) {
	c, err := FromWait(120, 0.5, 100, ratePB, rateFF, rateRW)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.B-70) > 1e-12 {
		t.Errorf("B = %g want 70", c.B)
	}
	if math.Abs(c.Wait()-0.5) > 1e-12 {
		t.Errorf("wait = %g want 0.5", c.Wait())
	}
	// Pure batching boundary: n = l/w gives B = 0.
	c, err = FromWait(120, 0.5, 240, ratePB, rateFF, rateRW)
	if err != nil || c.B != 0 {
		t.Errorf("pure batching: B=%g err=%v", c.B, err)
	}
	// Beyond pure batching is infeasible.
	if _, err := FromWait(120, 0.5, 241, ratePB, rateFF, rateRW); !errors.Is(err, ErrBadConfig) {
		t.Errorf("over-provisioned FromWait: want ErrBadConfig, got %v", err)
	}
}

func TestPureBatchingStreamsExample1(t *testing.T) {
	// Paper §5 Example 1: 75/0.1 + 60/0.5 + 90/0.25 = 1230 streams.
	total := PureBatchingStreams(75, 0.1) + PureBatchingStreams(60, 0.5) + PureBatchingStreams(90, 0.25)
	if total != 1230 {
		t.Errorf("pure batching total = %d want 1230", total)
	}
	if PureBatchingStreams(0, 1) != 0 || PureBatchingStreams(10, 0) != 0 {
		t.Error("degenerate inputs must give 0")
	}
}

// mcHit estimates the hit probability by simulating the continuous
// geometry directly — an oracle independent of the interval algebra in
// model.go. It draws the viewer position Vc ~ U[0, l], first-viewer
// offset u ~ U[0, B/n], duration x ~ d, and replays the catch-up race in
// wall-clock time under the drain semantics (a partition's buffered
// window survives for B/n minutes after its stream head passes l, while
// its trailing viewers finish).
func mcHit(c Config, op Op, d dist.Distribution, trials int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	span := c.PartitionSize()
	period := c.RestartInterval()
	hits := 0
	for t := 0; t < trials; t++ {
		vc := rng.Float64() * c.L
		u := rng.Float64() * span
		vf := vc + u
		x := d.Sample(rng)
		switch op {
		case FF:
			pos := vc + x
			if pos >= c.L {
				hits++ // ran off the end; resources released (Eq. 20)
				continue
			}
			tau := x * c.RatePB / c.RateFF // wall time of the sweep
			for i := 0; ; i++ {
				q := vf + float64(i)*period + tau // stream head (virtual)
				if q-span > pos {
					break // partitions further ahead are even further
				}
				if pos <= q && q <= c.L+span {
					hits++
					break
				}
			}
		case RW:
			pos := vc - x
			if pos <= 0 {
				continue // rewound to the start: model counts a miss
			}
			tau := x * c.RatePB / c.RateRW
			for i := 0; ; i++ {
				q := vf - float64(i)*period + tau
				if q < pos {
					break
				}
				if q-span <= pos && q <= c.L+span {
					hits++
					break
				}
			}
		case PAU:
			for i := 0; ; i++ {
				q := vf - float64(i)*period + x
				if q < vc {
					break
				}
				if q-span <= vc && q <= c.L+span {
					hits++
					break
				}
			}
		}
	}
	return float64(hits) / float64(trials)
}

func TestHitAgainstGeometricMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo oracle is slow")
	}
	gam := dist.MustGamma(2, 4)
	exp := dist.MustExponential(5)
	cases := []struct {
		name string
		c    Config
		op   Op
		d    dist.Distribution
	}{
		{"ff-gamma-mid", cfg(120, 60, 30), FF, gam},
		{"ff-gamma-few", cfg(120, 30, 5), FF, gam},
		{"ff-exp", cfg(75, 39, 60), FF, exp},
		{"rw-gamma", cfg(120, 60, 30), RW, gam},
		{"rw-exp", cfg(90, 45, 45), RW, exp},
		{"pau-gamma", cfg(120, 60, 30), PAU, gam},
		{"pau-exp-long", cfg(120, 40, 20), PAU, dist.MustExponential(40)},
	}
	const trials = 400000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := MustNew(tc.c)
			got := m.Hit(tc.op, tc.d)
			want := mcHit(tc.c, tc.op, tc.d, trials, 42)
			if math.Abs(got-want) > 0.004 {
				t.Errorf("model %.4f vs MC %.4f (|Δ|=%.4f)", got, want, math.Abs(got-want))
			}
		})
	}
}

func TestPaperEquationsMatchUnified(t *testing.T) {
	gam := dist.MustGamma(2, 4)
	exp := dist.MustExponential(8)
	cases := []struct {
		c Config
		d dist.Distribution
	}{
		{cfg(120, 60, 30), gam},
		{cfg(120, 30, 10), gam},
		{cfg(120, 90, 60), exp},
		{cfg(75, 39, 60), gam},
		{cfg(60, 30, 60), exp},
	}
	for _, tc := range cases {
		m := MustNew(tc.c)
		unified := m.HitFF(tc.d)
		paper := m.PaperFF(tc.d)
		if d := math.Abs(unified - paper.TotalExtended()); d > 2e-5 {
			t.Errorf("cfg %+v: unified %.8f vs paper-extended %.8f (Δ=%.2e)",
				tc.c, unified, paper.TotalExtended(), d)
		}
		// The literal Eq. 19 truncation can only drop probability mass.
		if paper.TotalLiteral() > paper.TotalExtended()+1e-9 {
			t.Errorf("literal %.8f exceeds extended %.8f", paper.TotalLiteral(), paper.TotalExtended())
		}
		// And the dropped tail is small on these configurations.
		if d := paper.TotalExtended() - paper.TotalLiteral(); d > 0.02 {
			t.Errorf("Eq.19 tail unexpectedly large: %.4f", d)
		}
	}
}

// TestBreakdownSumsToTotal checks that a breakdown's Total is the
// unclamped hit probability bit for bit, for closed-form and grid
// families alike — including durations with no mass near zero, whose
// first jump partitions are empty while later ones are not.
func TestBreakdownSumsToTotal(t *testing.T) {
	ln, err := dist.LognormalFromMoments(8, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	m := MustNew(cfg(120, 60, 30))
	for _, d := range []dist.Distribution{
		dist.MustGamma(2, 4),
		dist.MustDeterministic(8),
		dist.MustUniform(6, 10),
		ln,
		dist.MustPareto(8*(2.2-1)/2.2, 2.2),
	} {
		for _, op := range []Op{FF, RW, PAU} {
			bd := m.BreakdownOf(op, d)
			want, err := m.opSum(context.Background(), op, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			if bd.Total != want {
				t.Errorf("%T %v: breakdown total %.17g != unclamped hit %.17g", d, op, bd.Total, want)
			}
			if got := m.Hit(op, d); clampProb(bd.Total) != got {
				t.Errorf("%T %v: clamped total %.17g != hit %.17g", d, op, clampProb(bd.Total), got)
			}
			if s := bd.Within + sum(bd.Jumps) + bd.End; math.Abs(s-bd.Total) > 1e-12 {
				t.Errorf("%T %v: parts sum to %.12f, total %.12f", d, op, s, bd.Total)
			}
			if bd.Within < 0 || bd.End < 0 {
				t.Errorf("%T %v: negative component %+v", d, op, bd)
			}
			for i, j := range bd.Jumps {
				if j < -1e-15 {
					t.Errorf("%T %v: negative jump[%d] = %g", d, op, i, j)
				}
			}
			if op != FF && bd.End != 0 {
				t.Errorf("%T %v: End should be 0, got %g", d, op, bd.End)
			}
		}
	}
}

// TestDeterministicDurationExact pins the §4 configuration's
// deterministic 8-minute FF and RW hit probabilities to their exact
// values, 17/45 and 14/45. Their CDF is a step, so the partition terms
// are piecewise quadratic in the offset and the closed form is exact
// where quadrature over the offset converges only slowly.
func TestDeterministicDurationExact(t *testing.T) {
	m := MustNew(cfg(120, 60, 30))
	d := dist.MustDeterministic(8)
	if got := m.HitFF(d); math.Abs(got-17.0/45) > 1e-12 {
		t.Errorf("HitFF = %.15f, want 17/45 = %.15f", got, 17.0/45)
	}
	if got := m.HitRW(d); math.Abs(got-14.0/45) > 1e-12 {
		t.Errorf("HitRW = %.15f, want 14/45 = %.15f", got, 14.0/45)
	}
}

func TestPureBatchingHitProbabilities(t *testing.T) {
	// B = 0: partitions have zero width; only FF's run-off-the-end term
	// survives (paper §3.1: "the hit probability will always equal zero"
	// for the partition terms).
	gam := dist.MustGamma(2, 4)
	m := MustNew(cfg(120, 0, 240))
	if got := m.HitRW(gam); got != 0 {
		t.Errorf("RW hit = %g want 0", got)
	}
	if got := m.HitPAU(gam); got != 0 {
		t.Errorf("PAU hit = %g want 0", got)
	}
	ff := m.HitFF(gam)
	bd := m.BreakdownOf(FF, gam)
	if math.Abs(ff-bd.End) > 1e-12 || bd.Within != 0 || len(bd.Jumps) != 0 {
		t.Errorf("pure batching FF should be End only: hit=%g breakdown=%+v", ff, bd)
	}
	// P(end) for gamma(2,4) on l=120: E over uniform Vc of 1−F(l−Vc) ≈ mean/l.
	if ff < 0.04 || ff > 0.12 {
		t.Errorf("P(end) = %g outside plausible range", ff)
	}
}

func TestFullBufferPauseAlwaysHits(t *testing.T) {
	// B = L: partitions tile the whole movie with no gaps; a pause always
	// resumes inside some partition.
	m := MustNew(cfg(120, 120, 30))
	for _, d := range []dist.Distribution{
		dist.MustGamma(2, 4), dist.MustExponential(100), dist.MustUniform(0, 500),
	} {
		if got := m.HitPAU(d); math.Abs(got-1) > 1e-6 {
			t.Errorf("%T: full-buffer pause hit = %.8f want 1", d, got)
		}
	}
}

func TestPauseLongDurationLimit(t *testing.T) {
	// For pause durations much longer than the restart interval the hit
	// probability approaches the coverage fraction B/L.
	c := cfg(120, 48, 24)
	m := MustNew(c)
	got := m.HitPAU(dist.MustExponential(2000))
	want := c.B / c.L
	if math.Abs(got-want) > 0.002 {
		t.Errorf("long pause limit: got %.5f want %.5f", got, want)
	}
}

func TestPauseFoldingEquivalence(t *testing.T) {
	// Folding the pause duration mod L must not change the hit
	// probability: the partition pattern is periodic with period L/N,
	// which divides L (paper §2.1's "x mod l" remark).
	c := cfg(120, 40, 20)
	m := MustNew(c)
	base := dist.MustExponential(70)
	folded := dist.MustFolded(base, c.L)
	a := m.HitPAU(base)
	b := m.HitPAU(folded)
	if math.Abs(a-b) > 1e-6 {
		t.Errorf("fold equivalence: %g vs %g", a, b)
	}
}

func TestGridFallbackMatchesClosedForm(t *testing.T) {
	// Hide the concrete type so newDurFn takes the generic grid path and
	// compare with the closed-form G of the same distribution.
	exp := dist.MustExponential(8)
	op := opaque{exp}
	m := MustNew(cfg(120, 60, 30))
	for _, pair := range []struct {
		name string
		a, b float64
	}{
		{"FF", m.HitFF(exp), m.HitFF(op)},
		{"RW", m.HitRW(exp), m.HitRW(op)},
		{"PAU", m.HitPAU(exp), m.HitPAU(op)},
	} {
		if math.Abs(pair.a-pair.b) > 1e-6 {
			t.Errorf("%s: closed %.9f vs grid %.9f", pair.name, pair.a, pair.b)
		}
	}
}

// opaque hides a distribution's concrete type from newDurFn.
type opaque struct{ dist.Distribution }

func TestDurationGClosedForms(t *testing.T) {
	// G(x) = ∫₀ˣ F for each specialized family, checked against numeric
	// integration of the CDF.
	dists := []dist.Distribution{
		dist.MustExponential(8),
		dist.MustGamma(2, 4),
		dist.MustGamma(0.7, 3),
		dist.MustUniform(2, 10),
	}
	// Deterministic has a jump CDF the trapezoid reference cannot resolve;
	// check it against its exact G(x) = max(0, x − v).
	fDet := newDurFn(dist.MustDeterministic(5), 120)
	for _, x := range []float64{0, 3, 5, 8, 100} {
		if want := math.Max(0, x-5); math.Abs(fDet.G(x)-want) > 1e-12 {
			t.Errorf("deterministic G(%g) = %g want %g", x, fDet.G(x), want)
		}
	}
	for _, d := range dists {
		f := newDurFn(d, 120)
		for _, x := range []float64{0, 0.5, 3, 8, 25, 100} {
			// Trapezoid of the CDF as reference.
			const n = 20000
			var ref float64
			h := x / n
			if x > 0 {
				ref = 0.5 * (d.CDF(0) + d.CDF(x)) * h
				for i := 1; i < n; i++ {
					ref += d.CDF(float64(i)*h) * h
				}
			}
			if math.Abs(f.G(x)-ref) > 1e-5*(1+x) {
				t.Errorf("%T: G(%g) = %.8f want %.8f", d, x, f.G(x), ref)
			}
		}
	}
}

func TestClippedMassProperties(t *testing.T) {
	f := newDurFn(dist.MustGamma(2, 4), 120)
	l := 120.0
	// Degenerate and out-of-range intervals contribute nothing.
	if f.clippedMass(5, 5) != 0 || f.clippedMass(7, 3) != 0 || f.clippedMass(130, 150) != 0 {
		t.Error("degenerate intervals must give 0")
	}
	// Unclipped limit: for b << l, clippedMass/l ≈ F(b) − F(a) scaled by
	// the fraction of clip positions beyond b... exact identity:
	// clippedMass(a,b) = ∫ₐᵇ(F−F(a)) + (l−b)(F(b)−F(a)).
	a, b := 2.0, 6.0
	direct := f.G(b) - f.G(a) - (b-a)*f.F(a) + (l-b)*(f.F(b)-f.F(a))
	if math.Abs(f.clippedMass(a, b)-direct) > 1e-12 {
		t.Error("clippedMass identity violated")
	}
	// Monotone in b.
	if f.clippedMass(2, 6) > f.clippedMass(2, 8) {
		t.Error("clippedMass must grow with b")
	}
	// Negative a is clamped.
	if math.Abs(f.clippedMass(-3, 6)-f.clippedMass(0, 6)) > 1e-12 {
		t.Error("negative a must clamp to 0")
	}
}

func TestMixValidate(t *testing.T) {
	gam := dist.MustGamma(2, 4)
	good := Mix{PFF: 0.2, PRW: 0.2, PPAU: 0.6, FF: gam, RW: gam, PAU: gam}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid mix rejected: %v", err)
	}
	bad := []Mix{
		{PFF: 0.5, PRW: 0.2, PPAU: 0.2, FF: gam, RW: gam, PAU: gam}, // sum != 1
		{PFF: -0.2, PRW: 0.6, PPAU: 0.6, FF: gam, RW: gam, PAU: gam},
		{PFF: 1, FF: nil},   // missing dist
		{PPAU: 1, PAU: nil}, // missing dist
		{PRW: 1, RW: nil},   // missing dist
		{PFF: math.NaN(), PPAU: 1 - math.NaN(), FF: gam, PAU: gam},
	}
	for i, x := range bad {
		if err := x.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: want ErrBadConfig, got %v", i, err)
		}
	}
}

func TestHitMixIsConvexCombination(t *testing.T) {
	gam := dist.MustGamma(2, 4)
	m := MustNew(cfg(120, 60, 30))
	mix := Mix{PFF: 0.2, PRW: 0.2, PPAU: 0.6, FF: gam, RW: gam, PAU: gam}
	got, err := m.HitMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.2*m.HitFF(gam) + 0.2*m.HitRW(gam) + 0.6*m.HitPAU(gam)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("mix = %.9f want %.9f", got, want)
	}
	if _, err := m.HitMix(Mix{PFF: 2}); err == nil {
		t.Error("invalid mix must error")
	}
}

func TestSingleOpMix(t *testing.T) {
	gam := dist.MustGamma(2, 4)
	m := MustNew(cfg(120, 60, 30))
	for _, op := range []Op{FF, RW, PAU} {
		mix := SingleOp(op, gam)
		got, err := m.HitMix(mix)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-m.Hit(op, gam)) > 1e-12 {
			t.Errorf("%v: single-op mix %.9f != direct %.9f", op, got, m.Hit(op, gam))
		}
	}
}

func TestOpString(t *testing.T) {
	if FF.String() != "FF" || RW.String() != "RW" || PAU.String() != "PAU" {
		t.Error("Op.String mismatch")
	}
	if Op(99).String() != "Op(?)" {
		t.Error("unknown op string")
	}
}

// Property: all hit probabilities lie in [0, 1] over random feasible
// configurations and the paper's duration families.
func TestPropertyHitInUnitInterval(t *testing.T) {
	gam := dist.MustGamma(2, 4)
	prop := func(bRaw, nRaw uint8) bool {
		n := int(nRaw)%120 + 1
		b := float64(bRaw) / 255 * 120
		m := MustNew(cfg(120, b, n))
		for _, op := range []Op{FF, RW, PAU} {
			p := m.Hit(op, gam)
			if math.IsNaN(p) || p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: at fixed n, the hit probability is nondecreasing in the
// buffer size B — more buffered movie means more places to land.
func TestPropertyHitMonotoneInBuffer(t *testing.T) {
	gam := dist.MustGamma(2, 4)
	prop := func(nRaw, b1Raw, b2Raw uint8) bool {
		n := int(nRaw)%40 + 1
		b1 := float64(b1Raw) / 255 * 120
		b2 := float64(b2Raw) / 255 * 120
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		m1 := MustNew(cfg(120, b1, n))
		m2 := MustNew(cfg(120, b2, n))
		for _, op := range []Op{FF, RW, PAU} {
			if m1.Hit(op, gam) > m2.Hit(op, gam)+1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: at fixed wait w (so B = l − n·w), the hit probability is
// nonincreasing in n — the fig. 7 curve shape.
func TestPropertyHitDecreasesAlongWaitCurve(t *testing.T) {
	gam := dist.MustGamma(2, 4)
	w := 1.0
	l := 120.0
	prev := math.Inf(1)
	for n := 1; n <= 120; n += 7 {
		c, err := FromWait(l, w, n, ratePB, rateFF, rateRW)
		if err != nil {
			t.Fatal(err)
		}
		m := MustNew(c)
		p, err := m.HitMix(Mix{PFF: 0.2, PRW: 0.2, PPAU: 0.6, FF: gam, RW: gam, PAU: gam})
		if err != nil {
			t.Fatal(err)
		}
		if p > prev+1e-6 {
			t.Errorf("n=%d: hit %f rose above previous %f", n, p, prev)
		}
		prev = p
	}
}

func TestWaitStatistics(t *testing.T) {
	c := cfg(120, 60, 30) // w = 2, period 4, window 2
	if got := c.TypeOneFraction(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("type-1 fraction %g want 0.5", got)
	}
	if got := c.MeanWait(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("mean wait %g want 0.5", got)
	}
	// Pure batching: everyone queues, mean wait w/2.
	pb := cfg(120, 0, 60)
	if got := pb.TypeOneFraction(); got != 1 {
		t.Errorf("pure batching fraction %g", got)
	}
	if got := pb.MeanWait(); math.Abs(got-1) > 1e-12 {
		t.Errorf("pure batching mean wait %g want 1", got)
	}
	// Full buffer: nobody waits.
	full := cfg(120, 120, 30)
	if full.TypeOneFraction() != 0 || full.MeanWait() != 0 {
		t.Error("full buffer should eliminate waiting")
	}
}

// SingleOp returns a Mix that issues only the given operation with
// duration distribution d: the mix under which HitMix must equal Hit.
func SingleOp(op Op, d dist.Distribution) Mix {
	switch op {
	case FF:
		return Mix{PFF: 1, FF: d}
	case RW:
		return Mix{PRW: 1, RW: d}
	default:
		return Mix{PPAU: 1, PAU: d}
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}
