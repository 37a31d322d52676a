package quad

import (
	"context"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// simpson is one panel of simpsonRule, the rule Adaptive refines.
func simpson(f Func, a, b float64) float64 {
	return simpsonRule(a, b, f(a), f(0.5*(a+b)), f(b))
}

func TestSimpsonPolynomialExactness(t *testing.T) {
	// Simpson's rule is exact for cubics.
	cases := []struct {
		name string
		f    Func
		a, b float64
		want float64
	}{
		{"constant", func(x float64) float64 { return 3 }, 0, 5, 15},
		{"linear", func(x float64) float64 { return 2 * x }, 0, 4, 16},
		{"quadratic", func(x float64) float64 { return x * x }, 0, 3, 9},
		{"cubic", func(x float64) float64 { return x * x * x }, -1, 2, 3.75},
	}
	for _, c := range cases {
		got := simpson(c.f, c.a, c.b)
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("%s: Simpson=%g want %g", c.name, got, c.want)
		}
	}
}

func TestAdaptiveAgainstKnownIntegrals(t *testing.T) {
	cases := []struct {
		name string
		f    Func
		a, b float64
		want float64
	}{
		{"sin", math.Sin, 0, math.Pi, 2},
		{"exp", math.Exp, 0, 1, math.E - 1},
		{"inv1px2", func(x float64) float64 { return 1 / (1 + x*x) }, 0, 1, math.Pi / 4},
		{"sqrt", math.Sqrt, 0, 4, 16.0 / 3},
		{"gauss", func(x float64) float64 { return math.Exp(-x * x) }, -6, 6, math.Sqrt(math.Pi)},
	}
	for _, c := range cases {
		got, err := Adaptive(c.f, c.a, c.b, 1e-11)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !almostEqual(got, c.want, 1e-8) {
			t.Errorf("%s: Adaptive=%.12g want %.12g", c.name, got, c.want)
		}
	}
}

func TestAdaptiveReversedInterval(t *testing.T) {
	got, err := Adaptive(math.Sin, math.Pi, 0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, -2, 1e-8) {
		t.Errorf("reversed: got %g want -2", got)
	}
}

func TestAdaptiveDegenerateInterval(t *testing.T) {
	got, err := Adaptive(math.Exp, 1.5, 1.5, 0)
	if err != nil || got != 0 {
		t.Errorf("degenerate: got %g, %v; want 0, nil", got, err)
	}
}

func TestAdaptiveInvalidBounds(t *testing.T) {
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Adaptive(math.Exp, 0, b, 0); err != ErrInvalidInterval {
			t.Errorf("bound %v: want ErrInvalidInterval, got %v", b, err)
		}
	}
}

func TestAdaptiveKinkedIntegrand(t *testing.T) {
	// |x - 1/3| over [0,1]: kink off the sample grid. Integral =
	// (1/3)^2/2 + (2/3)^2/2 = 5/18.
	f := func(x float64) float64 { return math.Abs(x - 1.0/3) }
	got, err := Adaptive(f, 0, 1, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 5.0/18, 1e-7) {
		t.Errorf("kink: got %.12g want %.12g", got, 5.0/18)
	}
}

func TestAdaptivePathologicalDepthBound(t *testing.T) {
	// A discontinuous integrand exercises the depth bound without hanging.
	step := func(x float64) float64 {
		if x < math.Pi/10 {
			return 0
		}
		return 1
	}
	got, err := Adaptive(step, 0, 1, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Pi/10
	if !almostEqual(got, want, 1e-5) {
		t.Errorf("step: got %.9g want %.9g", got, want)
	}
}

func TestGauss20HighDegreeExactness(t *testing.T) {
	// 20-point Gauss is exact through degree 39.
	f := func(x float64) float64 { return math.Pow(x, 19) }
	got := Gauss20(f, 0, 1)
	if !almostEqual(got, 1.0/20, 1e-13) {
		t.Errorf("x^19: got %.15g want %.15g", got, 1.0/20)
	}
	g := func(x float64) float64 { return 5*math.Pow(x, 4) - 3*x + 7 }
	got = Gauss20(g, -2, 3)
	want := math.Pow(3, 5) - math.Pow(-2, 5) - 1.5*(9-4) + 7*5
	if !almostEqual(got, want, 1e-10) {
		t.Errorf("poly: got %g want %g", got, want)
	}
}

func TestGaussPanelsMatchesAdaptive(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(3*x) * math.Exp(-x/2) }
	want, err := Adaptive(f, 0, 10, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	got := GaussPanels(f, 0, 10, 8)
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("GaussPanels=%.12g Adaptive=%.12g", got, want)
	}
	if got := GaussPanels(f, 2, 2, 4); got != 0 {
		t.Errorf("empty interval: got %g", got)
	}
	// panels < 1 falls back to a single panel.
	if got := GaussPanels(f, 0, 1, 0); math.IsNaN(got) {
		t.Error("panels=0 produced NaN")
	}
}

// Property: for random cubics, Simpson's rule equals the exact
// antiderivative difference.
func TestPropertySimpsonExactForCubics(t *testing.T) {
	prop := func(c0, c1, c2, c3 float64, aRaw, wRaw uint8) bool {
		// Keep coefficients bounded to avoid float blowup.
		bound := func(v float64) float64 { return math.Mod(v, 100) }
		c0, c1, c2, c3 = bound(c0), bound(c1), bound(c2), bound(c3)
		a := float64(aRaw)/10 - 12
		b := a + float64(wRaw)/10 + 0.1
		f := func(x float64) float64 { return c0 + x*(c1+x*(c2+x*c3)) }
		anti := func(x float64) float64 {
			return x * (c0 + x*(c1/2+x*(c2/3+x*c3/4)))
		}
		want := anti(b) - anti(a)
		got := simpson(f, a, b)
		scale := math.Max(1, math.Abs(want))
		return math.Abs(got-want) <= 1e-9*scale
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Adaptive over adjacent intervals is additive.
func TestPropertyAdaptiveAdditive(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(x) + 0.3*x }
	prop := func(aRaw, mRaw, bRaw uint8) bool {
		a := float64(aRaw) / 20
		m := a + float64(mRaw)/20
		b := m + float64(bRaw)/20
		whole, err1 := Adaptive(f, a, b, 1e-11)
		left, err2 := Adaptive(f, a, m, 1e-11)
		right, err3 := Adaptive(f, m, b, 1e-11)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return math.Abs(whole-(left+right)) < 1e-8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRombergAgreesWithAdaptiveAndGauss(t *testing.T) {
	cases := []struct {
		f    Func
		a, b float64
	}{
		{math.Sin, 0, math.Pi},
		{func(x float64) float64 { return math.Exp(-x * x) }, -3, 3},
		{func(x float64) float64 { return 1 / (1 + x*x) }, 0, 5},
	}
	for i, c := range cases {
		romberg := Romberg(c.f, c.a, c.b, 12)
		adaptive, err := Adaptive(c.f, c.a, c.b, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		gauss := GaussPanels(c.f, c.a, c.b, 8)
		if !almostEqual(romberg, adaptive, 1e-9) {
			t.Errorf("case %d: Romberg %.12g vs Adaptive %.12g", i, romberg, adaptive)
		}
		if !almostEqual(romberg, gauss, 1e-8) {
			t.Errorf("case %d: Romberg %.12g vs Gauss %.12g", i, romberg, gauss)
		}
	}
	if Romberg(math.Sin, 1, 1, 8) != 0 {
		t.Error("degenerate interval")
	}
	// Level clamping keeps extreme arguments safe.
	if v := Romberg(math.Sin, 0, math.Pi, 1); math.Abs(v-2) > 0.1 {
		t.Errorf("low-level clamp: %g", v)
	}
	if v := Romberg(math.Sin, 0, math.Pi, 99); math.Abs(v-2) > 1e-10 {
		t.Errorf("high-level clamp: %g", v)
	}
}

// Property: Romberg and Gauss agree on random quartic polynomials (both
// integrate them essentially exactly).
func TestPropertyRombergMatchesGaussOnPolynomials(t *testing.T) {
	prop := func(c0, c1, c2 float64, wRaw uint8) bool {
		bound := func(v float64) float64 { return math.Mod(v, 10) }
		c0, c1, c2 = bound(c0), bound(c1), bound(c2)
		b := float64(wRaw)/40 + 0.1
		f := func(x float64) float64 { return c0 + x*(c1+x*(c2+x*x)) }
		r := Romberg(f, 0, b, 8)
		g := Gauss20(f, 0, b)
		scale := math.Max(1, math.Abs(g))
		return math.Abs(r-g) <= 1e-9*scale
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAutoPanelsMatchesFixed16 pins the adaptive rule against
// the fixed-16-panel oracle it replaces: over random smooth integrands
// (damped oscillators with random frequency, phase and decay — the
// shape of the model's u-integrands away from the clip), AutoPanels
// must agree with GaussPanels(…, 16) to well under the model's own
// approximation error.
func TestPropertyAutoPanelsMatchesFixed16(t *testing.T) {
	prop := func(freqSeed, phaseSeed, decaySeed uint8, spanSeed uint16) bool {
		freq := 0.1 + float64(freqSeed)/32 // up to ~8 rad over the interval
		phase := float64(phaseSeed) / 40
		decay := float64(decaySeed) / 512
		span := 0.5 + float64(spanSeed%2000)/100 // [0.5, 20.5]
		f := func(x float64) float64 {
			return math.Exp(-decay*x) * (1 + 0.5*math.Sin(freq*x+phase))
		}
		got := autoPanels(f, 0, span, 1e-10, 32)
		want := GaussPanels(f, 0, span, 16)
		return almostEqual(got, want, 1e-8*math.Max(1, math.Abs(want)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAutoPanelsRefinesOnlyOnFailure verifies the cost contract: a
// smooth integrand stops at the first 4-vs-8 comparison (12 panels =
// 240 evaluations, cheaper than the fixed 16 = 320), while a kinked
// integrand under a tight tolerance keeps doubling to the cap.
func TestAutoPanelsRefinesOnlyOnFailure(t *testing.T) {
	count := 0
	smooth := func(x float64) float64 { count++; return math.Exp(-x * x) }
	autoPanels(smooth, 0, 3, 1e-10, 32)
	if count != (4+8)*20 {
		t.Errorf("smooth integrand used %d evaluations, want %d (4+8 panels)", count, (4+8)*20)
	}
	count = 0
	kinked := func(x float64) float64 { count++; return math.Abs(x - math.Sqrt2) }
	autoPanels(kinked, 0, 3, 1e-14, 32)
	if count != (4+8+16+32)*20 {
		t.Errorf("kinked integrand used %d evaluations, want %d (doubling to the cap)", count, (4+8+16+32)*20)
	}
}

// TestAutoPanelsDegenerateAndClamps covers the edges: an empty
// interval is exactly zero, and a sub-8 cap is clamped so the rule
// always has one refinement to compare against.
func TestAutoPanelsDegenerateAndClamps(t *testing.T) {
	if v := autoPanels(math.Sin, 2, 2, 0, 32); v != 0 {
		t.Errorf("empty interval: got %v, want 0", v)
	}
	got := autoPanels(math.Cos, 0, 1, 0, 1)
	want := GaussPanels(math.Cos, 0, 1, 8)
	if got != want {
		t.Errorf("clamped cap: got %v, want the 8-panel value %v", got, want)
	}
}

// autoPanels runs AutoPanelsCtx on a context that never fires.
func autoPanels(f Func, a, b, tol float64, maxPanels int) float64 {
	v, _ := AutoPanelsCtx(context.Background(), f, a, b, tol, maxPanels)
	return v
}

// Gauss20 integrates f over [a, b] with a single panel of the 20-point
// Gauss–Legendre table behind GaussPanels. Exact for polynomials up to
// degree 39.
func Gauss20(f Func, a, b float64) float64 {
	if a == b {
		return 0
	}
	c := 0.5 * (a + b)
	h := 0.5 * (b - a)
	var sum float64
	for _, n := range gauss20 {
		sum += n.w * (f(c+h*n.x) + f(c-h*n.x))
	}
	return sum * h
}

// Romberg integrates f over [a, b] with Romberg extrapolation of the
// trapezoid rule to the given number of levels (rows of the tableau,
// clamped to [2, 20]). An independent high-order method that
// cross-checks Adaptive and the Gauss rules.
func Romberg(f Func, a, b float64, levels int) float64 {
	if a == b {
		return 0
	}
	if levels < 2 {
		levels = 2
	}
	if levels > 20 {
		levels = 20
	}
	r := make([][]float64, levels)
	h := b - a
	r[0] = []float64{0.5 * h * (f(a) + f(b))}
	for k := 1; k < levels; k++ {
		h /= 2
		// Trapezoid refinement: add the new midpoints.
		var sum float64
		pts := 1 << (k - 1)
		for i := 0; i < pts; i++ {
			sum += f(a + (2*float64(i)+1)*h)
		}
		r[k] = make([]float64, k+1)
		r[k][0] = 0.5*r[k-1][0] + h*sum
		// Richardson extrapolation across the row.
		pow := 4.0
		for j := 1; j <= k; j++ {
			r[k][j] = (pow*r[k][j-1] - r[k-1][j-1]) / (pow - 1)
			pow *= 4
		}
	}
	return r[levels-1][levels-1]
}
