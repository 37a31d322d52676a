package stream

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestStreamPositionAndRateChanges(t *testing.T) {
	s := New(1, 10, 0, 1)
	if s.ID() != 1 {
		t.Error("id")
	}
	if got := s.Position(25); got != 15 {
		t.Errorf("position %g want 15", got)
	}
	s.SetRate(25, 3) // fast-forward from position 15
	if got := s.Position(30); got != 30 {
		t.Errorf("position after rate change %g want 30", got)
	}
	if s.Rate() != 3 {
		t.Errorf("rate %g want 3", s.Rate())
	}
	s.Seek(30, 5)
	if got := s.Position(31); got != 8 {
		t.Errorf("after seek %g want 8", got)
	}
}

func TestScheduleNextRestart(t *testing.T) {
	s, err := NewSchedule(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Period() != 4 {
		t.Error("period")
	}
	cases := []struct{ now, want float64 }{
		{-5, 0}, {0, 0}, {0.1, 4}, {4, 4}, {4.0001, 8}, {11.9, 12}, {12, 12},
	}
	for _, c := range cases {
		if got := s.NextRestart(c.now); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NextRestart(%g) = %g want %g", c.now, got, c.want)
		}
	}
	if _, err := NewSchedule(0); !errors.Is(err, ErrBadParam) {
		t.Error("zero period must fail")
	}
}

func TestPlanMergeAhead(t *testing.T) {
	// Gap of 2 movie-minutes ahead, 5% slew: wall = 40 min, viewer sweeps
	// 42 movie-minutes.
	plan, ok := PlanMerge(50, 120, 2, math.Inf(1), 0.05)
	if !ok || !plan.Ahead {
		t.Fatalf("plan %+v ok=%v", plan, ok)
	}
	if math.Abs(plan.Wall-40) > 1e-9 || math.Abs(plan.MergePos-92) > 1e-9 {
		t.Errorf("plan %+v want wall 40 pos 92", plan)
	}
}

func TestPlanMergeBehind(t *testing.T) {
	plan, ok := PlanMerge(50, 120, math.Inf(1), 1, 0.05)
	if !ok || plan.Ahead {
		t.Fatalf("plan %+v ok=%v", plan, ok)
	}
	if math.Abs(plan.Wall-20) > 1e-9 || math.Abs(plan.MergePos-69) > 1e-9 {
		t.Errorf("plan %+v want wall 20 pos 69", plan)
	}
}

func TestPlanMergePicksCheaper(t *testing.T) {
	// Ahead gap 1 (wall 20) vs behind gap 3 (wall 60): pick ahead.
	plan, ok := PlanMerge(10, 120, 1, 3, 0.05)
	if !ok || !plan.Ahead {
		t.Errorf("should pick ahead: %+v ok=%v", plan, ok)
	}
	// Behind cheaper.
	plan, ok = PlanMerge(10, 120, 3, 1, 0.05)
	if !ok || plan.Ahead {
		t.Errorf("should pick behind: %+v ok=%v", plan, ok)
	}
}

func TestPlanMergeRejectsPastEnd(t *testing.T) {
	// Merge would complete past the movie end → infeasible.
	if _, ok := PlanMerge(118, 120, 2, math.Inf(1), 0.05); ok {
		t.Error("merge past end should fail")
	}
	// No candidate windows at all.
	if _, ok := PlanMerge(50, 120, math.Inf(1), math.Inf(1), 0.05); ok {
		t.Error("no windows should fail")
	}
	// Invalid slew.
	if _, ok := PlanMerge(50, 120, 1, 1, 0); ok {
		t.Error("zero slew should fail")
	}
}

// Property: a feasible merge always completes within the movie and the
// merge position is consistent with the slewed rate.
func TestPropertyPlanMergeConsistent(t *testing.T) {
	prop := func(posRaw, gaRaw, gbRaw uint16) bool {
		l := 120.0
		pos := float64(posRaw) / 65535 * l
		ga := float64(gaRaw) / 65535 * 10
		gb := float64(gbRaw) / 65535 * 10
		plan, ok := PlanMerge(pos, l, ga, gb, 0.05)
		if !ok {
			return true
		}
		if plan.MergePos > l+1e-9 || plan.Wall < 0 {
			return false
		}
		rate := 1 - 0.05
		if plan.Ahead {
			rate = 1 + 0.05
		}
		return math.Abs(plan.MergePos-(pos+rate*plan.Wall)) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
