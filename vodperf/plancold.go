package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vodalloc/internal/analytic"
	"vodalloc/internal/dist"
	"vodalloc/internal/httpapi"
	"vodalloc/internal/sizing"
	"vodalloc/internal/workload"
)

// plan-cold: a closed loop of nproc clients over loopback, each sending
// its next never-asked sizing question once the previous reply is in.
// Every question misses the memo cache, so the analytic/quad/dist stack
// does most of the work.

// countSweeps is how many sweep questions each replay through a fresh
// evaluator asks.
const countSweeps = 4

// done is one completed request.
type done struct {
	q   question
	r   reply
	lat float64 // ms from send to reply
	at  float64 // completion, seconds since the window began
}

// coldList is plan-cold's question list, drawn in set-up and extended
// on demand should a run outpace it.
type coldList struct {
	seed int64
	mu   sync.Mutex
	qs   []question
}

func (l *coldList) at(i int) question {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.qs) <= i {
		l.qs = append(l.qs, coldQuestion(l.seed, len(l.qs)))
	}
	return l.qs[i]
}

func runPlanCold(cfg runConfig) (*report, error) {
	rep := newReport()
	var st *stack
	var list *coldList
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, l, err := setupPlanCold(cfg)
		if err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		st, list = s, l
	}
	defer st.close()

	window := cfg.seconds
	if cfg.traced {
		window /= 2
	}
	var next atomic.Int64
	cpu0 := readCPUTimes()
	ops, elapsed := coldWindow(st, list, &next, window, false)
	rep.summary["machine.steal_frac"] = stealFrac(cpu0)
	all := ops
	if cfg.traced {
		traced, err := tracedColdWindow(rep, st, list, &next, window, float64(len(ops))/elapsed)
		if err != nil {
			return nil, err
		}
		all = append(all, traced...)
	}
	var every, hitSamples []sample
	var hits, sweeps []float64
	var shed, timeouts int
	for k, o := range all {
		rep.attempted++
		lat := o.lat
		if err := checkReply(o.q, o.r); err != nil {
			rep.failed++
			lat = math.Inf(1)
			fmt.Fprintln(os.Stderr, "vodperf: check failed:", err)
		}
		s, t := httpOutcome(o.r)
		shed, timeouts = shed+b2i(s), timeouts+b2i(t)
		if k >= len(ops) {
			continue // the traced half feeds only the per-layer metrics
		}
		every = append(every, sample{at: o.at, ms: lat})
		if o.q.hit != nil {
			hits = append(hits, lat)
			hitSamples = append(hitSamples, sample{at: o.at, ms: lat})
		} else {
			sweeps = append(sweeps, lat/1000)
		}
	}
	rep.layer["httpapi.shed"] = float64(shed)
	rep.layer["httpapi.timeouts"] = float64(timeouts)
	rep.opsPerS = windowRate(every, window)
	rep.p50ms = windowMedian(hitSamples, window, median)
	var level float64
	rep.p99ms, level = tailQuantile(hits, 0.99)
	rep.summary["req_per_s"] = rep.opsPerS
	rep.summary["hit_p50_ms"] = rep.p50ms
	rep.summary["hit_p99_ms"] = rep.p99ms
	rep.summary["hit_tail_level"] = level
	rep.summary["hit_samples"] = float64(len(hits))
	rep.summary["sweep_p50_s"] = median(sweeps)
	rep.summary["sweep_p90_s"], rep.summary["sweep_tail_level"] = tailQuantile(sweeps, 0.90)
	rep.summary["sweep_samples"] = float64(len(sweeps))
	var rec *recorder
	if cfg.traced {
		rec = st.rec
	}
	return rep, replayColdSweeps(rep, cfg.seed, rec)
}

// setupPlanCold starts the service, draws the question list and opens
// the client connections.
func setupPlanCold(cfg runConfig) (*stack, *coldList, error) {
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	st, err := startStack(rec)
	if err != nil {
		return nil, nil, err
	}
	list := &coldList{seed: cfg.seed}
	list.at(int(100*cfg.seconds) + 100)
	if err := connect(st); err != nil {
		st.close()
		return nil, nil, err
	}
	return st, list, nil
}

// connect makes one round trip per client connection, so a window
// starts with its connections open.
func connect(st *stack) error {
	errs := make(chan error, runtime.NumCPU())
	for c := 0; c < runtime.NumCPU(); c++ {
		go func() {
			resp, err := st.client.Get(st.base + "/healthz")
			if err == nil {
				resp.Body.Close()
			}
			errs <- err
		}()
	}
	var first error
	for c := 0; c < runtime.NumCPU(); c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// coldWindow runs nproc closed-loop clients for the given seconds,
// drawing question indices from next, and returns the completed
// requests and the elapsed wall time in seconds.
func coldWindow(st *stack, list *coldList, next *atomic.Int64, seconds float64, traced bool) ([]done, float64) {
	var mu sync.Mutex
	var out []done
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				q := list.at(i)
				t0 := time.Now()
				r := st.post(q.path, q.body, uint64(i+1), traced)
				d := done{q: q, r: r, lat: msSince(t0), at: time.Since(start).Seconds()}
				mu.Lock()
				out = append(out, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// tracedColdWindow runs the traced half of a traced run and the replays
// behind the per-layer metrics.
func tracedColdWindow(rep *report, st *stack, list *coldList, next *atomic.Int64, seconds, untracedRate float64) ([]done, error) {
	var ops []done
	var elapsed float64
	misses, err := st.observe(rep, func() { ops, elapsed = coldWindow(st, list, next, seconds, true) })
	if err != nil {
		return nil, err
	}
	tracedRate := float64(len(ops)) / elapsed
	rep.layer["trace.overhead_frac"] = 1 - tracedRate/untracedRate
	var hitReqs int
	for _, o := range ops {
		hitReqs += b2i(o.q.hit != nil)
	}
	rep.layer["analytic.evals_per_s"] = float64(misses+uint64(hitReqs)) / elapsed

	rec := st.rec
	rep.layer["httpapi.handler_ms.hit"] = median(rec.byName("handler /v1/hit"))
	rep.layer["httpapi.handler_ms.plan"] = median(rec.byName("handler /v1/plan"))
	rep.layer["httpapi.handler_ms.curve"] = median(rec.byName("handler /v1/curve"))

	if err := hitVersusHitMix(rep, st, list.seed); err != nil {
		return nil, err
	}
	return ops, analyticByFamily(rep, list.seed, rec)
}

// hitRatioSamples is how many fresh /v1/hit questions the
// hit-over-HitMix comparison sends.
const hitRatioSamples = 24

// hitVersusHitMix sends fresh closed-form /v1/hit questions one at a
// time and asks analytic.Model.HitMixCtx their twins from another
// stream directly, so both sides start on cold caches; the ratio of
// summed handler time to summed HitMixCtx time is what the HTTP path
// costs over the model.
func hitVersusHitMix(rep *report, st *stack, seed int64) error {
	var direct, handler float64
	for i, k := 0, 0; k < hitRatioSamples; i++ {
		q := coldQuestionFrom(seed, ratioStream, i)
		if q.hit == nil || q.family == famGrid {
			continue
		}
		k++
		req := uint64(1<<40 + i)
		if r := st.post(q.path, q.body, req, true); !r.ok() {
			return fmt.Errorf("hit ratio request: status %d", r.status)
		}
		for _, s := range st.rec.spansOf(req) {
			if s.Name == "handler /v1/hit" {
				handler += float64(s.End-s.Start) / 1e6
			}
		}
		twin := coldQuestionFrom(seed, directStream, i)
		ms, _, err := timeHitMix(twin.hit, st.rec, req)
		if err != nil {
			return err
		}
		direct += ms
	}
	if direct > 0 {
		rep.layer["httpapi.hit_over_hitmix"] = handler / direct
	}
	return nil
}

// timeHitMix evaluates a hit question directly on the analytic model
// and returns the wall time in milliseconds and the hit probability.
func timeHitMix(q *httpapi.HitRequest, rec *recorder, req uint64) (float64, float64, error) {
	d, err := dist.Parse(q.Profile.Dur)
	if err != nil {
		return 0, 0, err
	}
	id, t0 := rec.begin()
	start := time.Now()
	m, err := analytic.New(analytic.Config{
		L: q.Config.L, B: q.Config.B, N: q.Config.N, RatePB: 1, RateFF: 3, RateRW: 3,
	})
	if err != nil {
		return 0, 0, err
	}
	p, err := m.HitMixCtx(context.Background(), analytic.Mix{PFF: 0.2, PRW: 0.2, PPAU: 0.6, FF: d, RW: d, PAU: d})
	ms := msSince(start)
	rec.end(id, 0, req, "analytic.HitMixCtx", t0, 1)
	return ms, p, err
}

// familySamples is how many hit questions per family the analytic
// timing replays.
const familySamples = 12

// analyticByFamily times HitMixCtx on fresh hit questions of each
// duration family, drawn like the window's but never asked before.
func analyticByFamily(rep *report, seed int64, rec *recorder) error {
	var per [numFamilies][]float64
	for i := 0; ; i++ {
		full := true
		for f := range per {
			full = full && len(per[f]) >= familySamples
		}
		if full {
			break
		}
		q := coldQuestionFrom(seed, replayStream, i)
		if q.hit == nil || len(per[q.family]) >= familySamples {
			continue
		}
		ms, _, err := timeHitMix(q.hit, rec, uint64(1<<41+i))
		if err != nil {
			return err
		}
		per[q.family] = append(per[q.family], ms)
	}
	for f, xs := range per {
		rep.layer["analytic.hitmix_ms."+familyNames[f]] = median(xs)
	}
	return nil
}

// sweepMovies materializes a sweep question's catalog.
func sweepMovies(q question) ([]workload.Movie, error) {
	var specs []workload.MovieSpec
	if q.curve != nil {
		specs = q.curve.Movies
	} else {
		specs = q.plan.Movies
	}
	movies := make([]workload.Movie, len(specs))
	for i, s := range specs {
		m, err := s.ToMovie()
		if err != nil {
			return nil, err
		}
		movies[i] = m
	}
	return movies, nil
}

// runSweep answers a plan or curve question directly on an evaluator.
func runSweep(ctx context.Context, e *sizing.Evaluator, q question) error {
	movies, err := sweepMovies(q)
	if err != nil {
		return err
	}
	if q.curve != nil {
		_, err = e.CostCurveCtx(ctx, movies, sizing.DefaultRates, q.curve.Phi, q.curve.MaxPoints)
		return err
	}
	_, err = e.MinBufferPlanCtx(ctx, movies, sizing.DefaultRates, q.plan.MaxStreams, q.plan.MaxBuffer)
	return err
}

// replayColdSweeps replays fresh sweep questions, drawn like the
// window's, through a fresh single-worker evaluator, which makes the
// evaluator's hit and miss counts exact for the seed. A traced run also
// times each sweep cold and again warm (every evaluation a cache hit,
// so only sizing's own work remains), and their twins from another
// stream cold on a fresh two-worker evaluator: repeating the same
// sweeps would find analytic's process-wide caches warm.
func replayColdSweeps(rep *report, seed int64, rec *recorder) error {
	firstSweeps := func(stream int) []question {
		var out []question
		for i := 0; len(out) < countSweeps; i++ {
			if q := coldQuestionFrom(seed, stream, i); q.hit == nil {
				out = append(out, q)
			}
		}
		return out
	}
	ctx := context.Background()
	pass := func(e *sizing.Evaluator, sweeps []question, name string) ([]float64, error) {
		var ms []float64
		for k, q := range sweeps {
			before := e.CacheStats().Misses
			id, t0 := rec.begin()
			start := time.Now()
			if err := runSweep(ctx, e, q); err != nil {
				return nil, err
			}
			ms = append(ms, msSince(start))
			rec.end(id, 0, uint64(1<<42+k), name, t0, e.CacheStats().Misses-before)
		}
		return ms, nil
	}
	sweeps := firstSweeps(replayStream)
	one := &sizing.Evaluator{Workers: 1}
	cold, err := pass(one, sweeps, "sizing.sweep.cold")
	if err != nil {
		return err
	}
	cs := one.CacheStats()
	rep.counts["sizing.replay_sweeps"] = countSweeps
	rep.counts["sizing.replay_hits"] = cs.Hits
	rep.counts["sizing.replay_misses"] = cs.Misses
	if rec == nil {
		return nil
	}
	warm, err := pass(one, sweeps, "sizing.sweep.warm")
	if err != nil {
		return err
	}
	cold2, err := pass(&sizing.Evaluator{Workers: 2}, firstSweeps(twoWStream), "sizing.sweep.cold_2w")
	if err != nil {
		return err
	}
	rep.layer["sizing.evals_per_sweep"] = float64(cs.Misses) / countSweeps
	rep.layer["sizing.sweep_ms"] = median(cold)
	rep.layer["sizing.self_ms"] = median(warm)
	rep.layer["parallel.speedup_2w"] = sum(cold) / sum(cold2)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
