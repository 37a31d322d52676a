package main

import (
	"encoding/json"
	"fmt"
	"math"

	"vodalloc/internal/httpapi"
	"vodalloc/internal/workload"
)

// The output checks run after the timed window, on every op the window
// completed; an op whose check fails counts as failed.

func inUnit(p float64) bool { return p >= 0 && p <= 1 }

// checkReply checks one reply against the question that produced it.
func checkReply(q question, r reply) error {
	if r.err != nil {
		return r.err
	}
	if !r.ok() {
		return fmt.Errorf("%s: status %d: %s", q.path, r.status, r.body)
	}
	switch {
	case q.hit != nil:
		return checkHit(q.hit, r.body)
	case q.plan != nil:
		var resp httpapi.PlanResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return err
		}
		return checkPlan(q.plan.Movies, resp)
	case q.curve != nil:
		return checkCurve(r.body)
	default:
		return checkClusterPlan(q.clus, r.body)
	}
}

// checkHit: every probability lies in [0,1] and the reported hit is the
// mix of the per-operation values.
func checkHit(q *httpapi.HitRequest, body []byte) error {
	var r httpapi.HitResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	for _, p := range []float64{r.HitFF, r.HitRW, r.HitPAU, r.Hit} {
		if !inUnit(p) {
			return fmt.Errorf("hit: probability %v outside [0,1]", p)
		}
	}
	pff, prw, ppau := q.Profile.PFF, q.Profile.PRW, q.Profile.PPAU
	if pff == 0 && prw == 0 && ppau == 0 {
		pff, prw, ppau = 0.2, 0.2, 0.6
	}
	want := math.Min(1, math.Max(0, pff*r.HitFF+prw*r.HitRW+ppau*r.HitPAU))
	if math.Abs(want-r.Hit) > 1e-9 {
		return fmt.Errorf("hit: %v is not the mix %v of the per-op values", r.Hit, want)
	}
	return nil
}

// checkPlan: one allocation per movie, each meeting the movie's P* and
// maximum wait w = (l − B)/n, and totals that add up.
func checkPlan(movies []workload.MovieSpec, r httpapi.PlanResponse) error {
	if len(r.Allocs) != len(movies) {
		return fmt.Errorf("plan: %d allocations for %d movies", len(r.Allocs), len(movies))
	}
	var n int
	var b float64
	for i, a := range r.Allocs {
		m := movies[i]
		switch {
		case a.Movie != m.Name:
			return fmt.Errorf("plan: allocation %d is for %q, want %q", i, a.Movie, m.Name)
		case a.N < 1 || a.B < 0 || a.B > m.Length:
			return fmt.Errorf("plan: %s: n=%d B=%v out of range", m.Name, a.N, a.B)
		case a.Hit < m.TargetHit || !inUnit(a.Hit):
			return fmt.Errorf("plan: %s: hit %v misses P*=%v", m.Name, a.Hit, m.TargetHit)
		case (m.Length-a.B)/float64(a.N) > m.Wait*(1+1e-9):
			return fmt.Errorf("plan: %s: wait %v exceeds w=%v", m.Name, (m.Length-a.B)/float64(a.N), m.Wait)
		}
		n += a.N
		b += a.B
	}
	if n != r.TotalStreams || math.Abs(b-r.TotalBuffer) > 1e-6*math.Max(1, b) {
		return fmt.Errorf("plan: totals %d/%v do not add up to %d/%v", r.TotalStreams, r.TotalBuffer, n, b)
	}
	return nil
}

// checkCurve: the curve is non-empty and its min is its cheapest point.
func checkCurve(body []byte) error {
	var r httpapi.CurveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if len(r.Points) == 0 {
		return fmt.Errorf("curve: no points")
	}
	found := false
	for _, p := range r.Points {
		if p.RelativeCost < r.Min.RelativeCost {
			return fmt.Errorf("curve: point %+v is cheaper than min %+v", p, r.Min)
		}
		found = found || p == r.Min
	}
	if !found {
		return fmt.Errorf("curve: min %+v is not a curve point", r.Min)
	}
	return nil
}

// checkClusterPlan: every movie is placed at least once and no node
// exceeds its budget.
func checkClusterPlan(q *httpapi.ClusterPlanRequest, body []byte) error {
	var r httpapi.ClusterPlanResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	placed := map[string]bool{}
	for _, a := range r.Assignments {
		placed[a.Movie] = true
	}
	for _, m := range q.Movies {
		if !placed[m.Name] {
			return fmt.Errorf("cluster plan: movie %q unplaced", m.Name)
		}
	}
	if len(r.Nodes) != q.Nodes {
		return fmt.Errorf("cluster plan: %d nodes, want %d", len(r.Nodes), q.Nodes)
	}
	for _, n := range r.Nodes {
		if n.Streams > n.MaxStreams || n.Buffer > n.MaxBuffer+1e-9 {
			return fmt.Errorf("cluster plan: node %s over budget", n.Node)
		}
	}
	return nil
}
