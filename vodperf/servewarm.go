package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// serve-warm: open-loop Poisson traffic of Zipf-drawn repeats over a
// pool of sizing questions, each answered once in set-up, so nearly
// every request reads the memo cache and the cost is the HTTP stack,
// JSON and the evaluator's cache lock. Requests are timed from when
// they were due. One-second phases alternate between a fixed rate the
// service absorbs and a rate it cannot; at the second the generator
// drops requests that are already half the latency limit late instead
// of sending them, so the service runs flat out and goodput is what it
// completes within the limit.

const (
	// warmFixedRate and warmSatRate are the offered rates, requests per
	// second, of the fixed-rate and saturating phases.
	warmFixedRate = 2000
	warmSatRate   = 30000
	// warmLimitMS is the latency limit goodput counts against.
	warmLimitMS = 20
	// warmZipfTheta skews the draw over the pool.
	warmZipfTheta = 1.0
	// satBatch is how far the saturating phase's generator batches.
	satBatch = time.Millisecond
	// warmRound is the length, in seconds, of each phase of a round.
	warmRound = 1.0
)

// phaseResult is one open-loop phase.
type phaseResult struct {
	replies  []float64 // ms from due to reply; +Inf for a failed request
	late     []float64 // ms the generator ran behind each due time
	dropped  int       // saturating phase: not sent, already too late
	failed   int
	shed     int
	timeouts int
}

// good counts the replies within the latency limit.
func (p phaseResult) good() int {
	n := 0
	for _, v := range p.replies {
		n += b2i(v <= warmLimitMS)
	}
	return n
}

// rounds is a run of alternating fixed-rate and saturating phases. The
// phases alternate every second, so both see the same stretches of the
// machine's drifting speed, and each figure is the median over rounds.
type rounds struct{ fixed, sat []phaseResult }

func (r *rounds) run(st *stack, pool []question, ref [][]byte, seed int64, first, n int, traced bool) {
	for k := first; k < first+n; k++ {
		r.fixed = append(r.fixed, openLoop(st, pool, ref, seed, 2*k, warmFixedRate, warmRound, false, traced))
		r.sat = append(r.sat, openLoop(st, pool, ref, seed, 2*k+1, warmSatRate, warmRound, true, traced))
	}
}

// fixedLatency is the median over rounds of stat of the fixed-rate
// latencies.
func (r *rounds) fixedLatency(stat func([]float64) float64) float64 {
	vals := make([]float64, len(r.fixed))
	for i, p := range r.fixed {
		vals[i] = stat(p.replies)
	}
	return median(vals)
}

// goodput is the median over rounds of the saturating phase's replies
// within the limit per second.
func (r *rounds) goodput() float64 {
	vals := make([]float64, len(r.sat))
	for i, p := range r.sat {
		vals[i] = float64(p.good()) / warmRound
	}
	return median(vals)
}

// all returns every phase.
func (r *rounds) all() []phaseResult { return append(append([]phaseResult(nil), r.fixed...), r.sat...) }

// late returns the generator's lateness over every phase.
func (r *rounds) late() []float64 {
	var out []float64
	for _, p := range r.all() {
		out = append(out, p.late...)
	}
	return out
}

func runServeWarm(cfg runConfig) (*report, error) {
	rep := newReport()
	var st *stack
	var pool []question
	var ref [][]byte
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, p, r, err := setupServeWarm(cfg)
		if err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		st, pool, ref = s, p, r
	}
	defer st.close()
	cs := st.eval.CacheStats()
	rep.counts["sizing.warmup_hits"] = cs.Hits
	rep.counts["sizing.warmup_misses"] = cs.Misses
	rep.counts["sizing.warmup_entries"] = cs.Entries

	n := max(1, int(cfg.seconds/(2*warmRound)))
	if cfg.traced {
		n = max(1, n/2)
	}
	var plain rounds
	cpu0 := readCPUTimes()
	plain.run(st, pool, ref, cfg.seed, 0, n, false)
	rep.summary["machine.steal_frac"] = stealFrac(cpu0)
	phases := plain.all()
	if cfg.traced {
		var traced rounds
		misses, err := st.observe(rep, func() { traced.run(st, pool, ref, cfg.seed, n, n, true) })
		if err != nil {
			return nil, err
		}
		rep.layer["analytic.evals_per_s"] = float64(misses) / (2 * warmRound * float64(n))
		rep.layer["trace.overhead_frac"] = 1 - traced.goodput()/plain.goodput()
		rep.summary["httpapi.handler_us.warm"] = 1000 * median(handlerMS(st.rec))
		phases = append(phases, traced.all()...)
	}
	var shed, timeouts int
	for _, p := range phases {
		rep.attempted += len(p.replies)
		rep.failed += p.failed
		shed += p.shed
		timeouts += p.timeouts
	}
	rep.layer["httpapi.shed"] = float64(shed)
	rep.layer["httpapi.timeouts"] = float64(timeouts)

	rep.p50ms = plain.fixedLatency(median)
	rep.p99ms = plain.fixedLatency(tail99)
	rep.opsPerS = plain.goodput()
	var fixedN, sent, dropped int
	for i := range plain.fixed {
		fixedN += len(plain.fixed[i].replies)
		sent += len(plain.sat[i].replies)
		dropped += plain.sat[i].dropped
	}
	late := plain.late()
	rep.summary["p50_ms"] = rep.p50ms
	rep.summary["p99_ms"] = rep.p99ms
	rep.summary["rounds"] = float64(n)
	rep.summary["fixed_samples"] = float64(fixedN)
	rep.summary["fixed_rate_rps"] = warmFixedRate
	rep.summary["goodput_rps"] = rep.opsPerS
	rep.summary["sat_offered_rps"] = warmSatRate
	rep.summary["sat_sent"] = float64(sent)
	rep.summary["sat_dropped"] = float64(dropped)
	rep.summary["latency_limit_ms"] = warmLimitMS
	rep.summary["loadgen.late_p50_ms"] = median(late)
	rep.summary["loadgen.late_p99_ms"], _ = tailQuantile(late, 0.99)
	return rep, nil
}

// handlerMS returns the durations of every server-side span.
func handlerMS(rec *recorder) []float64 {
	var out []float64
	for _, p := range []string{"/v1/plan", "/v1/curve", "/v1/cluster/plan"} {
		out = append(out, rec.byName("handler "+p)...)
	}
	return out
}

// setupServeWarm starts the service, draws the pool and answers every
// pool question once, so the memo cache holds every evaluation the
// window will ask for. The replies are the reference the window's
// replies must equal byte for byte.
func setupServeWarm(cfg runConfig) (*stack, []question, [][]byte, error) {
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	st, err := startStack(rec)
	if err != nil {
		return nil, nil, nil, err
	}
	pool := warmPool(cfg.seed)
	ref := make([][]byte, len(pool))
	for i, q := range pool {
		r := st.post(q.path, q.body, 0, false)
		if err := checkReply(q, r); err != nil {
			st.close()
			return nil, nil, nil, fmt.Errorf("warm-up question %d: %w", i, err)
		}
		ref[i] = r.body
	}
	if err := connect(st); err != nil {
		st.close()
		return nil, nil, nil, err
	}
	return st, pool, ref, nil
}

// arrival is one scheduled request.
type arrival struct {
	q   int       // pool index
	due time.Time // when the request was due; its latency runs from here
	req uint64    // numbers the request for the trace: phase<<32 | n
}

// openLoop offers Poisson traffic at rate for the given seconds to nproc
// workers, one connection each. The arrivals are drawn from (seed,
// phase) as the generator goes. In a saturating phase a worker drops,
// unsent, a request already half the latency limit late when it comes
// up: it could hardly still make the limit, and sending it would only
// make the next ones late too.
func openLoop(st *stack, pool []question, ref [][]byte, seed int64, phase int, rate, seconds float64, saturating, traced bool) phaseResult {
	rng := rngFor(seed, 10+phase, 0)
	cdf := zipfCDF(len(pool), warmZipfTheta)
	var res phaseResult
	// Workers keep up at the fixed rate and drop stale requests at the
	// saturating one, so the queue stays short; the buffer absorbs
	// bursts without the generator waiting on a worker.
	queue := make(chan arrival, 1<<14)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				if saturating && msSince(a.due) > warmLimitMS/2 {
					mu.Lock()
					res.dropped++
					mu.Unlock()
					continue
				}
				q := pool[a.q]
				r := st.post(q.path, q.body, a.req, traced)
				lat := msSince(a.due)
				ok := r.ok() && bytes.Equal(r.body, ref[a.q])
				shed, timeout := httpOutcome(r)
				mu.Lock()
				if !ok {
					res.failed++
					lat = math.Inf(1)
					fmt.Fprintf(os.Stderr, "vodperf: %s reply differs from its warm-up reply (status %d)\n", q.path, r.status)
				}
				res.replies = append(res.replies, lat)
				res.shed += b2i(shed)
				res.timeouts += b2i(timeout)
				mu.Unlock()
			}
		}()
	}
	end := time.Duration(seconds * float64(time.Second))
	for n, t := uint64(1), rng.ExpFloat64()/rate; ; n, t = n+1, t+rng.ExpFloat64()/rate {
		at := time.Duration(t * float64(time.Second))
		if at >= end {
			break
		}
		q := sort.SearchFloat64s(cdf, rng.Float64())
		due := start.Add(at)
		wake := due
		if saturating && time.Until(due) > 0 {
			// Past capacity, exact pacing buys nothing: wake a batch
			// later and send everything due by then, one wake-up per
			// batch instead of per request. Latency still runs from due.
			wake = due.Add(satBatch)
		}
		sleepUntil(wake)
		res.late = append(res.late, msSince(due))
		queue <- arrival{q: q, due: due, req: uint64(phase)<<32 | n}
	}
	close(queue)
	wg.Wait()
	return res
}

// sleepUntil blocks until t in direct nanosleep calls. The runtime's
// timers wake up to a millisecond late on Linux (0.54 ms median on a
// 2-vCPU VM), longer than a warm reply takes; nanosleep wakes within
// about 0.06 ms.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep returns early; the loop sleeps again.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// zipfCDF returns the cumulative Zipf(theta) weights of n ranks.
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	var total float64
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1
	return cdf
}
