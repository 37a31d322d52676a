package main

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestCountsRepeat runs every workload twice at one seed and checks that
// the exact work counts agree bit for bit and that no op failed.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			var counts [2]map[string]uint64
			for k := range counts {
				rep, err := run(runConfig{seed: 7, seconds: 0.2})
				if err != nil {
					t.Fatal(err)
				}
				if rep.attempted == 0 || rep.failed != 0 {
					t.Fatalf("run %d: %d of %d ops failed", k, rep.failed, rep.attempted)
				}
				counts[k] = rep.counts
			}
			if len(counts[0]) == 0 {
				t.Fatal("no work counts recorded")
			}
			for key, v := range counts[0] {
				if v == 0 && key != "sizing.replay_hits" && key != "sizing.warmup_hits" {
					t.Errorf("count %s is zero", key)
				}
			}
			if !reflect.DeepEqual(counts[0], counts[1]) {
				t.Errorf("counts differ between runs at one seed:\n%v\n%v", counts[0], counts[1])
			}
		})
	}
}

// TestWindowRate checks throughput over 5-second windows, over one
// window in a shorter run, and that a last, partial window is left out.
func TestWindowRate(t *testing.T) {
	var xs []sample
	for at := 0.5; at < 32; at += 2.5 {
		xs = append(xs, sample{at: at})
	}
	if r := windowRate(xs, 30); r != 0.4 {
		t.Errorf("30 s run: rate %v, want 0.4", r)
	}
	if r := windowRate([]sample{{at: 0.5}, {at: 1.5}, {at: 3.2}}, 3); math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("3 s run: rate %v, want 2/3", r)
	}
}

// TestTailQuantile checks the tail rule: the highest quantile at or
// below the nominal one that leaves at least ten samples beyond it.
func TestTailQuantile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, level := tailQuantile(xs, 0.99); level != 0.9 || math.Abs(v-89.1) > 1e-9 {
		t.Errorf("100 samples: got %v at level %v, want 89.1 at 0.9", v, level)
	}
	xs = make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, level := tailQuantile(xs, 0.99); level != 0.99 {
		t.Errorf("2000 samples: level %v, want 0.99", level)
	}
}

// TestSimLayersSkipsFailedJobs checks that the per-layer figures leave
// out a failed job, which carries no result, instead of reading it.
func TestSimLayersSkipsFailedJobs(t *testing.T) {
	jobs := make([]job, len(jobKinds))
	for i, k := range jobKinds {
		jobs[i] = job{index: i, kind: k, err: errors.New("failed")}
	}
	rep := newReport()
	simLayers(rep, jobs, jobs)
	if h := rep.layer["cluster.hedges"]; h != 0 {
		t.Errorf("cluster.hedges %v from failed jobs, want 0", h)
	}
}
