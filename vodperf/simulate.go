package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"vodalloc/internal/analytic"
	"vodalloc/internal/cluster"
	"vodalloc/internal/dist"
	"vodalloc/internal/sim"
	"vodalloc/internal/sizing"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

// simulate: a closed loop running one simulation job at a time through
// the public sim and cluster functions. Cluster placements are computed
// in set-up and the DES jobs' checks against the analytic model run
// after the window, so the timed part never calls the analytic model;
// des, sim, fluid and cluster do all the work.

// jobKinds is the repeating job pattern. Half the jobs are single-movie
// DES runs, the paper's §4 validation run and the workload's unit op;
// the rest visit the fluid engine, the hybrid multi-movie server, a
// cluster with a node outage, and one gray-failure churn scenario under
// the blind/frozen posture and then the hedge+evacuate posture.
var jobKinds = []string{"des", "des", "fluid", "des", "hybrid", "des", "cluster", "des", "churn-blind", "churn-hedge"}

// desLadder is the arrival-rate ladder (viewers/minute) DES jobs step
// through, so every run sees the same spread of job sizes.
var desLadder = []float64{0.5, 0.9, 1.6, 2.8, 5}

// fluidLadder is the same for the popular titles on the fluid engine.
var fluidLadder = []float64{1e3, 1e4, 1e5}

// clusterVariants is how many cluster placements set-up computes; the
// cluster jobs cycle through them.
const clusterVariants = 4

var paperRates = vcr.Rates{PB: 1, FF: 3, RW: 3}

// job is one simulation with its result and cost.
type job struct {
	index int
	kind  string
	wall  float64 // ms
	at    float64 // completion, seconds since the window began
	// vmin is the simulated viewer-minutes: time-average viewers times
	// horizon on the sim engines, offered arrivals times mean title
	// length on the cluster and churn runs.
	vmin     float64
	events   uint64 // kernel events fired (des, fluid)
	arrivals uint64 // post-warmup arrivals (cluster, churn)
	nodes    int
	mallocs  uint64 // heap allocations during the run (traced runs)
	churn    *cluster.ChurnResult
	// check is the output check that needs the analytic model; it runs
	// after the timed window.
	check func() error
	err   error // failed run or failed output check
}

// placement is one precomputed cluster layout.
type placement struct {
	p      cluster.Placement
	movies []workload.Movie
}

func runSimulate(cfg runConfig) (*report, error) {
	rep := newReport()
	var places []placement
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		p, err := setupSimulate()
		if err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
		places = p
	}

	window := cfg.seconds
	if cfg.traced {
		window /= 2
	}
	cpu0 := readCPUTimes()
	jobs, elapsed, next := simWindow(cfg.seed, places, 0, window, nil)
	rep.summary["machine.steal_frac"] = stealFrac(cpu0)
	var traced []job
	var tel float64
	if cfg.traced {
		rep.spans = newRecorder()
		traced, tel, _ = simWindow(cfg.seed, places, next, window, rep.spans)
	}
	// The output checks run after the timed windows, so the analytic
	// model they call never counts towards a job's time.
	for _, js := range [][]job{jobs, traced} {
		for i := range js {
			j := &js[i]
			if j.err == nil && j.check != nil {
				j.err = j.check()
			}
			rep.attempted++
			if j.err != nil {
				rep.failed++
				fmt.Fprintf(os.Stderr, "vodperf: job %d (%s): %v\n", j.index, j.kind, j.err)
			}
		}
	}
	if cfg.traced {
		rep.layer["trace.overhead_frac"] = 1 - (float64(len(traced))/tel)/(float64(len(jobs))/elapsed)
		simLayers(rep, jobs[:len(jobKinds)], traced)
	}

	var desMS []float64
	var every, des []sample
	rate := map[string][2]float64{} // kind → (work, wall seconds)
	walls := map[string][]float64{}
	for _, j := range jobs {
		walls[j.kind] = append(walls[j.kind], j.wall)
		w := j.wall
		if j.err != nil {
			w = math.Inf(1)
		}
		every = append(every, sample{at: j.at, ms: w})
		if j.kind == "des" {
			desMS = append(desMS, w)
			des = append(des, sample{at: j.at, ms: w})
		}
		work := j.vmin
		if j.kind == "churn-blind" || j.kind == "churn-hedge" {
			work = float64(j.arrivals)
		}
		r := rate[j.kind]
		rate[j.kind] = [2]float64{r[0] + work, r[1] + j.wall/1000}
	}
	per := func(kinds ...string) float64 {
		var work, wall float64
		for _, k := range kinds {
			work += rate[k][0]
			wall += rate[k][1]
		}
		if wall == 0 {
			return 0
		}
		return work / wall
	}
	rep.opsPerS = windowRate(every, window)
	rep.p50ms = windowMedian(des, window, median)
	var level float64
	rep.p99ms, level = tailQuantile(desMS, 0.99)
	rep.summary["jobs_per_s"] = rep.opsPerS
	rep.summary["des_job_p50_ms"] = rep.p50ms
	rep.summary["des_job_p99_ms"] = rep.p99ms
	rep.summary["des_job_tail_level"] = level
	rep.summary["des_jobs"] = float64(len(desMS))
	rep.summary["des_vmin_per_s"] = per("des")
	rep.summary["fluid_vmin_per_s"] = per("fluid", "hybrid")
	rep.summary["cluster_vmin_per_s"] = per("cluster")
	rep.summary["churn_arrivals_per_s"] = per("churn-blind", "churn-hedge")
	rep.summary["churn_arrivals_per_s.blind"] = per("churn-blind")
	rep.summary["churn_arrivals_per_s.hedge"] = per("churn-hedge")
	for k, w := range walls {
		rep.summary["wall_ms."+k] = median(w)
	}
	simCounts(rep, jobs)
	return rep, nil
}

// setupSimulate computes the cluster placements: Zipf catalogs of six
// titles at several skews, sized on a fresh evaluator and packed onto
// three auto-sized nodes with the hottest title replicated twice.
func setupSimulate() ([]placement, error) {
	eval := &sizing.Evaluator{}
	out := make([]placement, clusterVariants)
	for v := range out {
		movies, err := workload.ZipfCatalog(6, 0.6+0.2*float64(v))
		if err != nil {
			return nil, err
		}
		allocs, err := cluster.Demands(context.Background(), eval, movies, sizing.DefaultRates)
		if err != nil {
			return nil, err
		}
		opts := cluster.Options{Replicas: 2, HotMovies: 1}
		p, err := cluster.PackAllocs(allocs, cluster.AutoNodes(3, allocs, opts, 2), opts)
		if err != nil {
			return nil, err
		}
		out[v] = placement{p: p, movies: movies}
	}
	return out, nil
}

// simWindow runs jobs from index first on for the given seconds, and at
// least until the first pattern cycle is complete, so the exact counts
// of that cycle exist in every run. With a recorder every job records a
// span. It returns the jobs, the elapsed seconds and the next index.
func simWindow(seed int64, places []placement, first int, seconds float64, rec *recorder) ([]job, float64, int) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var jobs []job
	i := first
	for ; time.Now().Before(deadline) || i < len(jobKinds); i++ {
		id, t0 := rec.begin()
		j := runJob(seed, i, places, rec != nil)
		rec.end(id, 0, uint64(i+1), "sim "+j.kind, t0, j.events+j.arrivals)
		j.at = time.Since(start).Seconds()
		jobs = append(jobs, j)
	}
	return jobs, time.Since(start).Seconds(), i
}

// runJob draws job i and runs it. With traced set it also counts the
// heap allocations the run makes.
func runJob(seed int64, i int, places []placement, traced bool) job {
	rng := rngFor(seed, jobStream, i)
	j := job{index: i, kind: jobKinds[i%len(jobKinds)]}
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	switch j.kind {
	case "des":
		rung := desLadder[desSlot(i)]
		j.err = runSingle(&j, rng, rung*uniform(rng, 0.95, 1.05), sim.EngineDES)
	case "fluid":
		rung := fluidLadder[(i/len(jobKinds))%len(fluidLadder)]
		j.err = runSingle(&j, rng, rung*uniform(rng, 0.95, 1.05), sim.EngineFluid)
	case "hybrid":
		j.err = runHybrid(&j, rng)
	case "cluster":
		j.err = runCluster(&j, rng, places[(i/len(jobKinds))%len(places)])
	default:
		// Both postures of one cycle share the scenario: the hedge job
		// draws from its blind twin's stream.
		twin := i
		if j.kind == "churn-hedge" {
			twin = i - 1
		}
		j.err = runChurn(&j, rngFor(seed, jobStream, twin), j.kind == "churn-hedge")
	}
	j.wall = msSince(start)
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		j.mallocs = ms1.Mallocs - ms0.Mallocs
	}
	return j
}

// desSlot numbers the DES jobs within one pattern cycle.
func desSlot(i int) int {
	n := 0
	for k := 0; k < i%len(jobKinds); k++ {
		if jobKinds[k] == "des" {
			n++
		}
	}
	return n
}

// titleProfile draws the §4 mixed VCR profile with Gamma(2, θ)
// durations and Exp(15) think times.
func titleProfile(rng *rand.Rand) vcr.Profile {
	return workload.MixedProfile(dist.MustGamma(2, uniform(rng, 3.8, 4.2)), dist.MustExponential(15))
}

// titleShape draws a title's length, buffer and stream count. The
// ranges are narrow because a run's cost depends on them; the job
// kinds and arrival-rate ladders, not the seed, set the spread of job
// sizes.
func titleShape(rng *rand.Rand) (l, b float64, n int) {
	l = uniform(rng, 100, 110)
	return l, l * uniform(rng, 0.35, 0.45), 38 + rng.Intn(5)
}

// runSingle runs one single-movie simulation. On the DES engine it
// leaves the check that the measured P(hit) lies within its confidence
// interval of the analytic model for after the window.
func runSingle(j *job, rng *rand.Rand, lambda float64, engine sim.Engine) error {
	l, b, n := titleShape(rng)
	cfg := sim.Config{
		L: l, B: b, N: n,
		Rates: paperRates, ArrivalRate: lambda, Profile: titleProfile(rng),
		Horizon: 600, Warmup: 100, Seed: rng.Int63(), Engine: engine,
	}
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	res, err := s.RunCtx(context.Background())
	if err != nil {
		return err
	}
	j.events = s.EventsFired()
	j.vmin = res.AvgViewers * cfg.Horizon
	hit := res.HitProbability()
	if !inUnit(hit) || res.Hits.N() == 0 {
		return fmt.Errorf("P(hit) %v over %d resumes", hit, res.Hits.N())
	}
	if engine == sim.EngineDES {
		mr := res.MovieResult
		j.check = func() error { return checkAgainstModel(cfg, &mr) }
	}
	return nil
}

// modelBias is the documented gap between the analytic model and the
// simulator for the §4 mixed workload: the model counts a rewind past
// the start as a miss while the simulated enrollment window may still
// be open (EXPERIMENTS.md, Figure 7d: up to 0.016).
const modelBias = 0.03

// checkAgainstModel checks that the simulated P(hit) lies within its
// confidence interval, widened to four standard errors and by
// modelBias, of the analytic model's prediction.
func checkAgainstModel(cfg sim.Config, r *sim.MovieResult) error {
	m, err := analytic.New(analytic.Config{L: cfg.L, B: cfg.B, N: cfg.N, RatePB: 1, RateFF: 3, RateRW: 3})
	if err != nil {
		return err
	}
	p := cfg.Profile
	want, err := m.HitMix(analytic.Mix{PFF: p.PFF, PRW: p.PRW, PPAU: p.PPAU, FF: p.DurFF, RW: p.DurRW, PAU: p.DurPAU})
	if err != nil {
		return err
	}
	lo, hi := r.Hits.Wilson95()
	half := (hi - lo) / 2 * 4 / 1.96
	if got := r.HitProbability(); math.Abs(got-want) > half+modelBias {
		return fmt.Errorf("DES P(hit) %.4f outside ±%.4f of the model's %.4f", got, half+modelBias, want)
	}
	return nil
}

// runHybrid runs a five-title server on the hybrid engine: three
// popular titles at 10³–10⁵ arrivals/minute on the fluid backend and
// two tail titles on the DES.
func runHybrid(j *job, rng *rand.Rand) error {
	var movies []sim.MovieSetup
	for k := 0; k < 5; k++ {
		lambda := uniform(rng, 0.9, 1.1)
		if k < 3 {
			lambda = fluidLadder[k] * uniform(rng, 0.95, 1.05)
		}
		l, b, n := titleShape(rng)
		movies = append(movies, sim.MovieSetup{
			Name: fmt.Sprintf("t%d", k), L: l, B: b, N: n,
			ArrivalRate: lambda, Profile: titleProfile(rng),
		})
	}
	cfg := sim.ServerConfig{
		Movies: movies, Rates: paperRates, Horizon: 400, Warmup: 50, Seed: rng.Int63(),
		Engine: sim.EngineHybrid, FluidThreshold: 100,
	}
	s, err := sim.NewServer(cfg)
	if err != nil {
		return err
	}
	res, err := s.RunCtx(context.Background())
	if err != nil {
		return err
	}
	j.vmin = res.AvgViewers * cfg.Horizon
	if len(res.Movies) != len(movies) {
		return fmt.Errorf("hybrid: %d results for %d titles", len(res.Movies), len(movies))
	}
	for name, m := range res.Movies {
		if !inUnit(m.HitProbability()) || m.Hits.N() == 0 {
			return fmt.Errorf("hybrid: %s P(hit) %v over %d resumes", name, m.HitProbability(), m.Hits.N())
		}
	}
	return nil
}

// runCluster simulates a precomputed placement with one node outage.
func runCluster(j *job, rng *rand.Rand, pl placement) error {
	nodes := pl.p.Nodes
	down := nodes[rng.Intn(len(nodes))].ID
	at := uniform(rng, 200, 240)
	cfg := cluster.SimConfig{
		Placement: pl.p, Movies: pl.movies, Rates: paperRates,
		TotalRate: uniform(rng, 1.8, 2.2), Horizon: 600, Warmup: 100, Seed: rng.Int63(),
		Faults: []cluster.NodeFault{{Node: down, At: at, Until: at + 150}},
	}
	res, err := cluster.Simulate(context.Background(), cfg)
	if err != nil {
		return err
	}
	j.nodes = len(nodes)
	j.arrivals = res.Arrivals
	j.vmin = cfg.TotalRate * cfg.Horizon * meanLength(pl.movies)
	switch {
	case res.Routed+res.Shed != res.Arrivals:
		return fmt.Errorf("cluster: routed %d + shed %d != arrivals %d", res.Routed, res.Shed, res.Arrivals)
	case !inUnit(res.Availability) || !inUnit(res.Hit):
		return fmt.Errorf("cluster: availability %v hit %v", res.Availability, res.Hit)
	}
	return nil
}

// meanLength is the popularity-weighted mean title length.
func meanLength(movies []workload.Movie) float64 {
	var l, w float64
	for _, m := range movies {
		l += m.Popularity * m.Length
		w += m.Popularity
	}
	return l / w
}

// churnBudgetBytes caps the hedge+evacuate posture's migration bytes.
const churnBudgetBytes = 60e9

// runChurn runs the gray-failure churn scenario: six Zipf titles
// replicated twice on four nodes, a flash crowd on the hottest title, a
// 12× slow disk on node0 and a brownout of node2. blind freezes the
// placement and routes blind; otherwise the router hedges and the
// controller evacuates quarantined nodes.
func runChurn(j *job, rng *rand.Rand, hedge bool) error {
	movies, err := workload.ZipfCatalog(6, 0.8)
	if err != nil {
		return err
	}
	allocs := make([]cluster.MovieAlloc, len(movies))
	for i, m := range movies {
		allocs[i] = cluster.MovieAlloc{Movie: m.Name, N: 10, B: 8, Hit: 0.7, Wait: 0.3, Weight: m.Popularity}
	}
	nodes := cluster.UniformNodes(4, 300, 200)
	for i := range nodes {
		nodes[i].Disks = 4
	}
	p, err := cluster.PackAllocs(allocs, nodes, cluster.Options{Replicas: 2})
	if err != nil {
		return err
	}
	slow := uniform(rng, 290, 310)
	brown := uniform(rng, 390, 410)
	cfg := cluster.ChurnConfig{
		Placement: p,
		Workload: workload.DynamicWorkload{
			Movies:   movies,
			BaseRate: uniform(rng, 9.5, 10.5),
			Flashes: []workload.FlashCrowd{
				{Movie: "m01", At: uniform(rng, 240, 260), Peak: 4, Ramp: 10, Hold: 60, Decay: 30},
			},
		},
		Horizon: 1000, Warmup: 100, Seed: rng.Int63(),
		ControllerOff: !hedge,
		Controller: cluster.ControllerConfig{
			Interval: 10, Cooldown: 15, BudgetBytes: churnBudgetBytes, EvacuateDwell: 10,
		},
		Window: 60,
		Gray: []cluster.GrayFault{
			{Kind: cluster.GraySlow, Node: "node0", Disk: 2, At: slow, Until: slow + 400, Factor: 12},
			{Kind: cluster.GrayBrownout, Node: "node2", At: brown, Until: brown + 400, Factor: 0.4},
		},
	}
	if hedge {
		cfg.Policy = cluster.PolicyHedge
		cfg.Health = cluster.HealthConfig{DiskHealth: true}
	}
	res, err := cluster.RunChurn(context.Background(), cfg)
	if err != nil {
		return err
	}
	j.churn = res
	j.arrivals = res.Arrivals
	j.vmin = float64(res.Arrivals) * meanLength(movies)
	if shed := res.ShedNoReplica + res.ShedSaturated + res.ShedDegraded; res.Admitted+shed != res.Arrivals {
		return fmt.Errorf("churn: admitted %d + shed %d != arrivals %d", res.Admitted, shed, res.Arrivals)
	}
	return nil
}

// simCounts records the exact work counts of the first pattern cycle,
// which every run completes.
func simCounts(rep *report, jobs []job) {
	for _, j := range jobs[:len(jobKinds)] {
		switch j.kind {
		case "des":
			rep.counts["sim.des_events"] += j.events
		case "fluid":
			rep.counts["fluid.events"] += j.events
		case "cluster":
			rep.counts["cluster.sim_arrivals"] += j.arrivals
		case "churn-blind", "churn-hedge":
			rep.counts["cluster.churn_arrivals"] += j.arrivals
			if j.churn != nil {
				rep.counts["cluster.hedges"] += j.churn.Gray.Hedges
				rep.counts["cluster.quarantines"] += j.churn.Gray.Quarantines
				rep.counts["cluster.migrations"] += uint64(j.churn.Controller.MigrationsStarted)
			}
		}
	}
}

// simLayers computes the per-layer metrics: exact work ratios from the
// first pattern cycle, times from the traced jobs.
func simLayers(rep *report, first, jobs []job) {
	var desEv, desVmin, desNS, desAllocs, flEv, flVmin, flNS float64
	var nodeMS, blindUS, hedgeUS []float64
	var hedges, quarantines, migrations float64
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		switch j.kind {
		case "des":
			desEv += float64(j.events)
			desVmin += j.vmin
			desNS += j.wall * 1e6
			desAllocs += float64(j.mallocs)
		case "fluid":
			flEv += float64(j.events)
			flVmin += j.vmin
			flNS += j.wall * 1e6
		case "cluster":
			nodeMS = append(nodeMS, j.wall/float64(j.nodes))
		case "churn-blind":
			blindUS = append(blindUS, 1000*j.wall/float64(j.arrivals))
		case "churn-hedge":
			hedgeUS = append(hedgeUS, 1000*j.wall/float64(j.arrivals))
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rep.layer["sim.des_ns_per_event"] = ratio(desNS, desEv)
	rep.layer["sim.des_allocs_per_event"] = ratio(desAllocs, desEv)
	rep.layer["fluid.ns_per_event"] = ratio(flNS, flEv)
	desEv, desVmin, flEv, flVmin = 0, 0, 0, 0
	for _, j := range first {
		if j.err != nil {
			continue
		}
		switch j.kind {
		case "des":
			desEv += float64(j.events)
			desVmin += j.vmin
		case "fluid":
			flEv += float64(j.events)
			flVmin += j.vmin
		case "churn-hedge":
			hedges += float64(j.churn.Gray.Hedges)
			quarantines += float64(j.churn.Gray.Quarantines)
			migrations += float64(j.churn.Controller.MigrationsStarted)
		}
	}
	rep.layer["sim.des_events_per_vmin"] = ratio(desEv, desVmin)
	rep.layer["fluid.events_per_vmin"] = ratio(flEv, flVmin)
	rep.layer["cluster.sim_ms_per_node"] = median(nodeMS)
	rep.layer["cluster.churn_us_per_arrival.blind"] = median(blindUS)
	rep.layer["cluster.churn_us_per_arrival.hedge"] = median(hedgeUS)
	rep.layer["cluster.hedges"] = hedges
	rep.layer["cluster.quarantines"] = quarantines
	rep.layer["cluster.migrations"] = migrations
}
