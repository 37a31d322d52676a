package sizing

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vodalloc/internal/dist"
	"vodalloc/internal/workload"
)

// frontierEval builds the same per-n evaluator the walker uses, against
// a given Evaluator's cache.
func frontierEval(e *Evaluator, m workload.Movie) func(int) (Point, error) {
	key := mixKey(m.Profile)
	return func(n int) (Point, error) {
		b := math.Max(0, m.Length-float64(n)*m.Wait)
		hit, err := e.hitAt(context.Background(), m, DefaultRates, key, n, b)
		if err != nil {
			return Point{}, err
		}
		return Point{N: n, B: b, Hit: hit, Feasible: hit >= m.TargetHit}, nil
	}
}

// Property: the gallop+bisect frontier walk lands on the same stream
// count as the exhaustive linear scan, across randomized movie shapes
// (length, wait, target, and duration scales). The walk's only
// assumption is monotonicity of feasibility along the frontier; this is
// the test that would catch a configuration violating it.
func TestPropertyFrontierWalkMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		length := 30 + rng.Float64()*90
		wait := length / (2 + rng.Float64()*28) // nMax between ~2 and ~30
		m := workload.Movie{
			Name:      "prop",
			Length:    length,
			Wait:      wait,
			TargetHit: 0.2 + rng.Float64()*0.7,
			Profile: workload.MixedProfile(
				dist.MustExponential(1+rng.Float64()*10),
				dist.MustExponential(5+rng.Float64()*20),
			),
		}
		e := &Evaluator{Workers: 1}
		got, gotErr := e.MaxFeasibleStreamsCtx(context.Background(), m, DefaultRates)
		nMax := int(math.Floor(m.Length / m.Wait))
		want, wantErr := e.maxFeasibleLinear(m, frontierEval(e, m), nMax)
		switch {
		case gotErr != nil && wantErr != nil:
			if !errors.Is(gotErr, ErrInfeasible) {
				t.Errorf("trial %d: unexpected error %v", trial, gotErr)
			}
		case gotErr != nil || wantErr != nil:
			t.Errorf("trial %d: walker err %v, linear err %v", trial, gotErr, wantErr)
		case got.N != want.N:
			t.Errorf("trial %d (l=%.1f w=%.2f target=%.2f): walker n=%d, linear n=%d",
				trial, m.Length, m.Wait, m.TargetHit, got.N, want.N)
		}
	}
}

// BenchmarkSizingFrontier measures one cold frontier search (cache
// cleared each iteration, so every probe integrates). ci.sh runs it with
// -benchmem as a smoke check; the interesting number is evaluations per
// search, which the walker keeps at O(log n*).
func BenchmarkSizingFrontier(b *testing.B) {
	b.ReportAllocs()
	m := workload.Example1Movies()[1]
	for i := 0; i < b.N; i++ {
		e := &Evaluator{Workers: 1}
		if _, err := e.MaxFeasibleStreams(m, DefaultRates); err != nil {
			b.Fatal(err)
		}
	}
}

// maxFeasibleLinear is the exhaustive oracle for the frontier walk:
// scan from nMax down and return the first feasible point.
func (e *Evaluator) maxFeasibleLinear(m workload.Movie, eval func(int) (Point, error), nMax int) (Point, error) {
	for n := nMax; n >= 1; n-- {
		p, err := eval(n)
		if err != nil {
			return Point{}, err
		}
		if p.Feasible {
			return p, nil
		}
	}
	return Point{}, fmt.Errorf("%w: movie %q has no feasible stream count", ErrInfeasible, m.Name)
}
