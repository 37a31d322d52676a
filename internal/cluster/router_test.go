package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func testPlacement(t *testing.T) Placement {
	t.Helper()
	allocs := []MovieAlloc{
		{Movie: "hot", N: 12, B: 6, Weight: 0.7},
		{Movie: "cold", N: 8, B: 4, Weight: 0.3},
	}
	p, err := PackAllocs(allocs, UniformNodes(3, 30, 20), Options{Replicas: 2, HotMovies: 1})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	return p
}

// TestRouterDeterministic is the satellite property: two routers with
// the same placement and seed, driven through the same call sequence,
// make identical decisions.
func TestRouterDeterministic(t *testing.T) {
	p := testPlacement(t)
	r1, err := NewRouter(p, 42)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	r2, err := NewRouter(p, 42)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	movies := []string{"hot", "cold", "hot", "hot", "cold"}
	var done1, done2 []string
	for i := 0; i < 400; i++ {
		m := movies[i%len(movies)]
		d1, err1 := r1.Route(m)
		d2, err2 := r2.Route(m)
		if (err1 == nil) != (err2 == nil) || d1 != d2 {
			t.Fatalf("call %d: %v/%v vs %v/%v", i, d1, err1, d2, err2)
		}
		if err1 == nil {
			done1 = append(done1, d1.Node)
			done2 = append(done2, d2.Node)
		}
		if i%3 == 2 && len(done1) > 0 {
			r1.Done(done1[0])
			r2.Done(done2[0])
			done1, done2 = done1[1:], done2[1:]
		}
	}
	if r1.Stats() != r2.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", r1.Stats(), r2.Stats())
	}
}

func TestRouterFailover(t *testing.T) {
	p := testPlacement(t)
	r, err := NewRouter(p, 7)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	reps := p.Replicas("hot")
	if len(reps) != 2 {
		t.Fatalf("hot has %d replicas, want 2", len(reps))
	}
	if err := r.SetNodeDown(reps[0].Node, true); err != nil {
		t.Fatalf("SetNodeDown: %v", err)
	}
	for i := 0; i < 10; i++ {
		d, err := r.Route("hot")
		if err != nil {
			t.Fatalf("Route: %v", err)
		}
		if d.Node != reps[1].Node || !d.Failover {
			t.Fatalf("got %+v, want failover to %s", d, reps[1].Node)
		}
	}
	if s := r.Stats(); s.Failovers != 10 {
		t.Errorf("failovers=%d, want 10", s.Failovers)
	}
}

func TestRouterShedsWhenAllReplicasDown(t *testing.T) {
	p := testPlacement(t)
	r, err := NewRouter(p, 7)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	for _, a := range p.Replicas("cold") {
		if err := r.SetNodeDown(a.Node, true); err != nil {
			t.Fatalf("SetNodeDown: %v", err)
		}
	}
	if _, err := r.Route("cold"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
	if s := r.Stats(); s.Sheds != 1 {
		t.Errorf("sheds=%d, want 1", s.Sheds)
	}
	// The node coming back restores service.
	for _, a := range p.Replicas("cold") {
		if err := r.SetNodeDown(a.Node, false); err != nil {
			t.Fatalf("SetNodeDown: %v", err)
		}
	}
	if _, err := r.Route("cold"); err != nil {
		t.Fatalf("Route after repair: %v", err)
	}
}

func TestRouterUnknownInputs(t *testing.T) {
	r, err := NewRouter(testPlacement(t), 1)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if _, err := r.Route("nope"); !errors.Is(err, ErrUnknownMovie) {
		t.Errorf("Route(nope): got %v, want ErrUnknownMovie", err)
	}
	if err := r.SetNodeDown("nope", true); !errors.Is(err, ErrBadCluster) {
		t.Errorf("SetNodeDown(nope): got %v, want ErrBadCluster", err)
	}
}

// TestRouterConcurrent hammers the router from many goroutines so the
// race detector can vet the locking; totals must balance.
func TestRouterConcurrent(t *testing.T) {
	r, err := NewRouter(testPlacement(t), 3)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			movie := "hot"
			if g%2 == 1 {
				movie = "cold"
			}
			for i := 0; i < per; i++ {
				d, err := r.Route(movie)
				if err != nil {
					t.Errorf("Route: %v", err)
					return
				}
				if i%2 == 0 {
					r.Done(d.Node)
				}
			}
		}(g)
	}
	wg.Wait()
	if s := r.Stats(); s.Routed != goroutines*per {
		t.Errorf("routed=%d, want %d", s.Routed, goroutines*per)
	}
}

func TestRouterSpreadsLoadAcrossReplicas(t *testing.T) {
	p := testPlacement(t)
	r, err := NewRouter(p, 5)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	counts := map[string]int{}
	for i := 0; i < 600; i++ {
		d, err := r.Route("hot")
		if err != nil {
			t.Fatalf("Route: %v", err)
		}
		counts[d.Node]++ // never Done: live load accumulates
	}
	reps := p.Replicas("hot")
	for _, a := range reps {
		if counts[a.Node] < 100 {
			t.Errorf("replica host %s got %d of 600 requests — load weighting broken: %v",
				a.Node, counts[a.Node], counts)
		}
	}
}

// TestRouterRebalanceDeterministic extends the determinism property
// across live rebalances: two same-seed routers driven through an
// identical interleaving of RouteGray, ReleaseDisk, AddReplica,
// RemoveReplica and SetNodeDown make identical decisions throughout.
func TestRouterRebalanceDeterministic(t *testing.T) {
	p := testPlacement(t)
	r1, err := NewRouter(p, 42)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	r2, err := NewRouter(p, 42)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	spare := func(r *Router) string {
		// A node without a "hot" replica yet, same on both routers.
		for _, n := range []string{"node0", "node1", "node2"} {
			hosts := map[string]bool{}
			for _, a := range p.Replicas("hot") {
				hosts[a.Node] = true
			}
			if !hosts[n] {
				return n
			}
		}
		t.Fatal("no spare node")
		return ""
	}
	movies := []string{"hot", "cold", "hot", "hot", "cold"}
	var live1, live2 []struct{ movie, node string }
	for i := 0; i < 600; i++ {
		switch {
		case i == 150:
			if err := r1.AddReplica("hot", spare(r1), 12); err != nil {
				t.Fatalf("AddReplica r1: %v", err)
			}
			if err := r2.AddReplica("hot", spare(r2), 12); err != nil {
				t.Fatalf("AddReplica r2: %v", err)
			}
		case i == 300:
			r1.SetNodeDown("node0", true)
			r2.SetNodeDown("node0", true)
		case i == 400:
			r1.SetNodeDown("node0", false)
			r2.SetNodeDown("node0", false)
		case i == 450:
			// Remove the replica added at step 150 on both.
			if err := r1.RemoveReplica("hot", spare(r1)); err != nil {
				t.Fatalf("RemoveReplica r1: %v", err)
			}
			if err := r2.RemoveReplica("hot", spare(r2)); err != nil {
				t.Fatalf("RemoveReplica r2: %v", err)
			}
		}
		m := movies[i%len(movies)]
		d1, err1 := r1.RouteGray(m, 0, nil)
		d2, err2 := r2.RouteGray(m, 0, nil)
		if (err1 == nil) != (err2 == nil) || d1 != d2 {
			t.Fatalf("call %d: %+v/%v vs %+v/%v", i, d1, err1, d2, err2)
		}
		if err1 == nil {
			live1 = append(live1, struct{ movie, node string }{m, d1.Node})
			live2 = append(live2, struct{ movie, node string }{m, d2.Node})
		}
		if i%3 == 2 && len(live1) > 0 {
			r1.ReleaseDisk(live1[0].movie, live1[0].node, 0)
			r2.ReleaseDisk(live2[0].movie, live2[0].node, 0)
			live1, live2 = live1[1:], live2[1:]
		}
	}
	if r1.Stats() != r2.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", r1.Stats(), r2.Stats())
	}
}

// TestRouterRebalanceConcurrent hammers RouteGray/ReleaseDisk while another
// goroutine adds and removes replicas and flips node state — the -race
// certification that rebalances are atomic against traffic.
func TestRouterRebalanceConcurrent(t *testing.T) {
	p := testPlacement(t)
	r, err := NewRouter(p, 3)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	hosts := map[string]bool{}
	for _, a := range p.Replicas("cold") {
		hosts[a.Node] = true
	}
	var spare string
	for _, n := range []string{"node0", "node1", "node2"} {
		if !hosts[n] {
			spare = n
			break
		}
	}
	const goroutines, per = 6, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			movie := "hot"
			if g%2 == 1 {
				movie = "cold"
			}
			for i := 0; i < per; i++ {
				d, err := r.RouteGray(movie, 0, nil)
				if err != nil {
					continue // saturation is legal mid-rebalance
				}
				if i%2 == 0 {
					r.ReleaseDisk(movie, d.Node, d.Disk)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := r.AddReplica("cold", spare, 8); err != nil {
				t.Errorf("AddReplica: %v", err)
				return
			}
			_ = r.Replicas("cold")
			_, _ = r.Load()
			_ = r.IsDown(spare)
			if err := r.RemoveReplica("cold", spare); err != nil {
				t.Errorf("RemoveReplica: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestRouterLoadTypedErrors pins the typed shedding split: saturated
// hosts yield ErrSaturated, downed hosts ErrUnavailable.
func TestRouterLoadTypedErrors(t *testing.T) {
	allocs := []MovieAlloc{{Movie: "only", N: 2, B: 1, Weight: 1}}
	p, err := PackAllocs(allocs, UniformNodes(1, 2, 10), Options{})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	r, err := NewRouter(p, 1)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.RouteGray("only", 0, nil); err != nil {
			t.Fatalf("RouteGray %d under capacity: %v", i, err)
		}
	}
	if _, err := r.RouteGray("only", 0, nil); !errors.Is(err, ErrSaturated) {
		t.Fatalf("at capacity: err = %v, want ErrSaturated", err)
	}
	r.SetNodeDown("node0", true)
	if _, err := r.RouteGray("only", 0, nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("node down: err = %v, want ErrUnavailable", err)
	}
	r.SetNodeDown("node0", false)
	r.ReleaseDisk("only", "node0", 0)
	if d, err := r.RouteGray("only", 0, nil); err != nil || d.Node != "node0" {
		t.Fatalf("after release: %+v, %v", d, err)
	}
}

// TestRouterReplicaGuards pins the rebalance-safety invariants.
func TestRouterReplicaGuards(t *testing.T) {
	p := testPlacement(t)
	r, err := NewRouter(p, 1)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	primary := p.Replicas("hot")[0].Node
	if err := r.AddReplica("hot", primary, 12); err == nil {
		t.Error("duplicate AddReplica accepted")
	}
	if err := r.AddReplica("nope", "node0", 12); err == nil {
		t.Error("AddReplica of unknown movie accepted")
	}
	if err := r.AddReplica("hot", "node9", 12); err == nil {
		t.Error("AddReplica on unknown node accepted")
	}
	if err := r.RemoveReplica("hot", primary); err == nil {
		t.Error("RemoveReplica of the primary accepted")
	}
	if err := r.RemoveReplica("cold", "node9"); err == nil {
		t.Error("RemoveReplica on unknown node accepted")
	}
}

// routeLoadOracle is the churn simulator's former non-gray routing call,
// kept verbatim as the reference the nil-waitFn RouteGray path is
// checked against: capacity-aware candidates weighted by placed
// capacity over live load, one Float64 per multi-candidate decision.
func routeLoadOracle(r *Router, movie string) (LoadDecision, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	hosts, ok := r.host[movie]
	if !ok {
		return LoadDecision{}, fmt.Errorf("%w: %q", ErrUnknownMovie, movie)
	}
	var (
		up    []int // indexes into hosts
		wts   []float64
		total float64
		alive bool
	)
	for k, n := range hosts {
		if r.down[n] || r.health[n].state == Quarantined {
			continue
		}
		alive = true
		if r.maxStreams[n] > 0 && r.live[n] >= r.maxStreams[n] {
			continue
		}
		w := float64(r.cap[movie][k]) / float64(1+r.live[n])
		up = append(up, k)
		wts = append(wts, w)
		total += w
	}
	if len(up) == 0 {
		r.stats.Sheds++
		if alive {
			return LoadDecision{}, fmt.Errorf("%w: %q", ErrSaturated, movie)
		}
		return LoadDecision{}, fmt.Errorf("%w: %q", ErrUnavailable, movie)
	}
	choice := up[0]
	if len(up) > 1 {
		u := r.rng.Float64() * total
		for k, w := range wts {
			if u < w || k == len(up)-1 {
				choice = up[k]
				break
			}
			u -= w
		}
	}
	node := hosts[choice]
	r.live[node]++
	key := movie + "\x00" + r.ids[node]
	r.liveBy[key]++
	r.stats.Routed++
	d := LoadDecision{
		Node:     r.ids[node],
		Failover: r.down[hosts[0]],
		AllocN:   r.cap[movie][choice],
		Live:     r.liveBy[key],
	}
	if d.Failover {
		r.stats.Failovers++
	}
	return d, nil
}

// releaseOracle is the former disk-blind release on an unarmed router,
// which keeps no per-disk books.
func releaseOracle(r *Router, movie, node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.releaseLocked(movie, node)
}

// TestRouteGrayNilWaitMatchesOracle is the equivalence property of the
// single routing path: on an unarmed router, RouteGray with a nil waitFn
// and ReleaseDisk on disk 0 make the same decisions, return the same
// typed errors and leave the same digest as routeLoadOracle and
// releaseOracle, through random mixes of routing, releases, replica
// moves, node outages and quarantine overrides.
func TestRouteGrayNilWaitMatchesOracle(t *testing.T) {
	allocs := []MovieAlloc{
		{Movie: "hot", N: 4, B: 2, Weight: 0.5},
		{Movie: "mid", N: 3, B: 2, Weight: 0.3},
		{Movie: "cold", N: 2, B: 1, Weight: 0.2},
	}
	p, err := PackAllocs(allocs, UniformNodes(4, 8, 40), Options{Replicas: 2})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	movies := []string{"hot", "mid", "cold", "nope"}
	nodes := []string{"node0", "node1", "node2", "node3"}
	sameErr := func(e1, e2 error) bool {
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if e1 == nil {
			return true
		}
		for _, typed := range []error{ErrUnknownMovie, ErrUnavailable, ErrSaturated, ErrBadCluster} {
			if errors.Is(e1, typed) != errors.Is(e2, typed) {
				return false
			}
		}
		return e1.Error() == e2.Error()
	}
	prop := func(seed int64, ops [256]uint16) bool {
		want, err := NewRouter(p, seed)
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		got, err := NewRouter(p, seed)
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		type viewer struct{ movie, node string }
		var live []viewer
		for i, op := range ops {
			arg := int(op >> 3)
			movie, node := movies[arg%len(movies)], nodes[(arg/len(movies))%len(nodes)]
			var e1, e2 error
			switch op % 8 {
			case 0, 1, 2:
				d1, err1 := routeLoadOracle(want, movie)
				d2, err2 := got.RouteGray(movie, float64(i), nil)
				if d2.LoadDecision != d1 || d2.Wait != 0 || d2.Disk != 0 || d2.Probe || d2.Hedged {
					t.Logf("op %d route %s: oracle %+v, RouteGray %+v", i, movie, d1, d2)
					return false
				}
				if err1 == nil {
					live = append(live, viewer{movie, d1.Node})
				}
				e1, e2 = err1, err2
			case 3:
				if len(live) == 0 {
					continue
				}
				k := arg % len(live)
				releaseOracle(want, live[k].movie, live[k].node)
				got.ReleaseDisk(live[k].movie, live[k].node, 0)
				live = append(live[:k], live[k+1:]...)
			case 4:
				e1, e2 = want.AddReplica(movie, node, 1+arg%4), got.AddReplica(movie, node, 1+arg%4)
			case 5:
				e1, e2 = want.RemoveReplica(movie, node), got.RemoveReplica(movie, node)
			case 6:
				down := arg&1 == 1
				e1, e2 = want.SetNodeDown(node, down), got.SetNodeDown(node, down)
			case 7:
				st := Healthy
				if arg&1 == 1 {
					st = Quarantined
				}
				e1, e2 = want.SetHealthState(node, st), got.SetHealthState(node, st)
			}
			if !sameErr(e1, e2) {
				t.Logf("op %d (%d): oracle error %v, RouteGray path error %v", i, op%8, e1, e2)
				return false
			}
			if grayDigestOf(want) != grayDigestOf(got) {
				t.Logf("op %d (%d): digests diverged", i, op%8)
				return false
			}
		}
		return want.Stats() == got.Stats()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRouteProbationFallbackOnly pins how every routing path treats a
// node forced to Probation on an unarmed (blind) router: it takes no
// regular traffic while a healthier replica is routable, and serves as
// the fallback when none is. Probes only run under a health-aware
// policy, so on a blind router the fallback is its only traffic.
func TestRouteProbationFallbackOnly(t *testing.T) {
	p := testPlacement(t)
	reps := p.Replicas("hot")
	if len(reps) < 2 {
		t.Fatalf("hot has %d replicas, want 2", len(reps))
	}
	primary, second := reps[0].Node, reps[1].Node
	for _, path := range []string{"Route", "RouteGray"} {
		r, err := NewRouter(p, 5)
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		if err := r.SetHealthState(second, Probation); err != nil {
			t.Fatalf("SetHealthState: %v", err)
		}
		route := func() (string, error) {
			if path == "Route" {
				d, err := r.Route("hot")
				return d.Node, err
			}
			d, err := r.RouteGray("hot", 0, nil)
			return d.Node, err
		}
		for i := 0; i < 10; i++ {
			n, err := route()
			if err != nil || n != primary {
				t.Fatalf("%s %d: routed to %q (%v), want the healthy primary %q", path, i, n, err, primary)
			}
		}
		r.SetNodeDown(primary, true)
		if n, err := route(); err != nil || n != second {
			t.Fatalf("%s with the primary down: routed to %q (%v), want the probation fallback %q", path, n, err, second)
		}
	}
}
