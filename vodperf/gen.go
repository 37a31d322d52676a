package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"vodalloc/internal/httpapi"
	"vodalloc/internal/workload"
)

// The generator is the only source of inputs. Every input is a pure
// function of (seed, index), so two runs at one seed see the same
// questions in the same order whatever their timing, and a longer run
// only extends the list.

// family is a VCR duration family. The analytic model has a closed
// form for the first three and takes the grid path for the last, so
// the four differ several-fold in cost per evaluation.
type family int

const (
	famGammaInt family = iota
	famGammaFrac
	famExp
	famGrid
	numFamilies
)

var familyNames = [numFamilies]string{"gamma_int", "gamma_frac", "exp", "grid"}

// rngFor returns the generator of input index i under seed; stream
// separates independent input lists drawn from one seed.
func rngFor(seed int64, stream, i int) *rand.Rand {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)<<48 ^ uint64(i)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return rand.New(rand.NewSource(int64(x)))
}

func uniform(rng *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }

// durSpec draws a duration distribution of the family in dist.Parse
// syntax, with a mean near the §4 workload's 8 minutes. Parameters carry
// six decimals, so two draws never coincide and every question misses
// the process-wide caches; their ranges are narrow because the model's
// cost depends on them.
func durSpec(rng *rand.Rand, f family) string {
	switch f {
	case famGammaInt:
		return fmt.Sprintf("gamma:2:%.6f", uniform(rng, 3.6, 4.4))
	case famGammaFrac:
		return fmt.Sprintf("gamma:%.6f:%.6f", uniform(rng, 2.3, 2.7), uniform(rng, 3, 3.4))
	case famExp:
		return fmt.Sprintf("exp:%.6f", uniform(rng, 7.2, 8.8))
	default:
		return fmt.Sprintf("weibull:%.6f:%.6f", uniform(rng, 1.3, 1.5), uniform(rng, 8.4, 9.4))
	}
}

// catalog draws an n-title catalog for a sizing question. Title j has
// family fams[j % len(fams)]. The waits share out about streams
// buffer-free streams l/w over the titles: a search's cost grows with
// l/w, so catalogs of one to three titles cost about the same.
func catalog(rng *rand.Rand, n int, fams []family, streams float64) []workload.MovieSpec {
	movies := make([]workload.MovieSpec, n)
	for j := range movies {
		l := uniform(rng, 60, 120)
		movies[j] = workload.MovieSpec{
			Name:      fmt.Sprintf("m%d", j+1),
			Length:    l,
			Wait:      l / (streams / float64(n) * uniform(rng, 0.9, 1.1)),
			TargetHit: uniform(rng, 0.48, 0.52),
			Dur:       durSpec(rng, fams[j%len(fams)]),
		}
	}
	return movies
}

// rotation returns every family, starting at f.
func rotation(f family) []family {
	out := make([]family, numFamilies)
	for j := range out {
		out[j] = (f + family(j)) % numFamilies
	}
	return out
}

// question is one generated request.
type question struct {
	path   string
	family family // family of the first (or only) title
	body   []byte
	// Exactly one of these is set, matching path.
	hit   *httpapi.HitRequest
	plan  *httpapi.PlanRequest
	curve *httpapi.CurveRequest
	clus  *httpapi.ClusterPlanRequest
}

func newQuestion(path string, f family, req any) question {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // the request types always marshal
	}
	q := question{path: path, family: f, body: body}
	switch r := req.(type) {
	case *httpapi.HitRequest:
		q.hit = r
	case *httpapi.PlanRequest:
		q.plan = r
	case *httpapi.CurveRequest:
		q.curve = r
	case *httpapi.ClusterPlanRequest:
		q.clus = r
	}
	return q
}

// coldKinds is plan-cold's repeating request pattern: three in four
// requests are /v1/hit, the rest alternate /v1/plan and /v1/curve.
var coldKinds = []string{"/v1/hit", "/v1/hit", "/v1/plan", "/v1/hit", "/v1/hit", "/v1/hit", "/v1/curve", "/v1/hit"}

// hitPartitions is the ladder of partition counts n that /v1/hit
// questions step through; an evaluation's cost grows linearly in n.
var hitPartitions = []int{24, 40, 56, 72}

// sweepStreams is the total l/w of a sweep question's catalog.
const sweepStreams = 120

// coldQuestion returns plan-cold's question i. Question properties that
// set its cost — duration family, partition count, catalog size — step
// through fixed cycles short enough that every run covers each many
// times; the seed draws everything else, so a run's cost hardly depends
// on the seed while no two questions coincide.
func coldQuestion(seed int64, i int) question {
	return coldQuestionFrom(seed, coldStream, i)
}

// Input streams drawn from one seed. Question i has the same kind,
// family and size on every stream, so the per-layer replays can ask
// questions that cost what the window's questions cost without
// repeating one: a repeat would find the process-wide analytic caches
// warm.
const (
	coldStream   = 1 // plan-cold's question list
	warmStream   = 2 // serve-warm's pool
	ratioStream  = 3 // /v1/hit questions the traced comparison sends
	jobStream    = 4 // simulate's job list
	directStream = 5 // their twins the comparison asks HitMixCtx directly
	replayStream = 6 // questions replayed on the analytic model and one-worker evaluators
	twoWStream   = 7 // sweeps replayed on a two-worker evaluator
)

// coldQuestionFrom is coldQuestion drawn from the given input stream.
func coldQuestionFrom(seed int64, stream, i int) question {
	rng := rngFor(seed, stream, i)
	path := coldKinds[i%len(coldKinds)]
	// k numbers the question among those of its kind, hits or sweeps.
	isHit := path == "/v1/hit"
	var before, perCycle int
	for p, kind := range coldKinds {
		if (kind == "/v1/hit") == isHit {
			perCycle++
			before += b2i(p < i%len(coldKinds))
		}
	}
	k := i/len(coldKinds)*perCycle + before
	if isHit {
		f := family(k % int(numFamilies))
		n := hitPartitions[k/int(numFamilies)%len(hitPartitions)]
		l := uniform(rng, 60, 120)
		return newQuestion(path, f, &httpapi.HitRequest{
			Config: httpapi.ConfigJSON{
				L: l, B: l * uniform(rng, 0.1, 0.6), N: n - 2 + rng.Intn(5),
			},
			Profile: httpapi.ProfileJSON{Dur: durSpec(rng, f)},
		})
	}
	// Plans and curves alternate; each meets every first family and
	// catalog size within 24 sweeps.
	f := family(k / 2 % int(numFamilies))
	movies := catalog(rng, 1+k/2%3, rotation(f), sweepStreams)
	if path == "/v1/plan" {
		return newQuestion(path, f, &httpapi.PlanRequest{Movies: movies})
	}
	return newQuestion(path, f, &httpapi.CurveRequest{Movies: movies, Phi: uniform(rng, 0.5, 4), MaxPoints: 40})
}

// warmPoolSize is how many distinct questions serve-warm repeats.
const warmPoolSize = 12

// warmFamilies are the pool's duration families: the two cheapest
// closed forms, which keep serve-warm's set-up short.
var warmFamilies = []family{famExp, famGammaInt}

// warmStreams is the l/w of each title of a pool question.
const warmStreams = 40

// warmPool returns serve-warm's question pool in Zipf rank order. The
// kinds rotate plan, curve, cluster plan, so every seed has the same
// kind at each popularity rank.
func warmPool(seed int64) []question {
	pool := make([]question, warmPoolSize)
	for i := range pool {
		rng := rngFor(seed, warmStream, i)
		fams := []family{warmFamilies[i%2], warmFamilies[(i+1)%2]}
		n := 1 + (i/3)%2
		switch i % 3 {
		case 0:
			pool[i] = newQuestion("/v1/plan", fams[0], &httpapi.PlanRequest{Movies: catalog(rng, n, fams, warmStreams*float64(n))})
		case 1:
			pool[i] = newQuestion("/v1/curve", fams[0], &httpapi.CurveRequest{
				Movies: catalog(rng, n, fams, warmStreams*float64(n)), Phi: uniform(rng, 0.5, 4), MaxPoints: 40,
			})
		default:
			movies := catalog(rng, 3, fams, 3*warmStreams)
			for j := range movies {
				movies[j].Popularity = 1 / float64(j+1)
			}
			pool[i] = newQuestion("/v1/cluster/plan", fams[0], &httpapi.ClusterPlanRequest{
				Movies: movies, Nodes: 2 + rng.Intn(2), Replicas: 2, HotMovies: 1, Headroom: 1.5,
			})
		}
	}
	return pool
}
