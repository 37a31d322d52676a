package analytic

import (
	"runtime"
	"sync"
	"testing"

	"vodalloc/internal/dist"
)

// TestDurCacheBoundsRetainedHeap asks about 500 never-seen grid-family
// distributions, as a long-running server answering fresh questions
// does, and requires the heap retained afterwards to stay bounded: each
// grid durFn holds a 64 KB G table, so an unbounded cache would keep
// about 37 MB here.
func TestDurCacheBoundsRetainedHeap(t *testing.T) {
	m := MustNew(cfg(120, 60, 4))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for i := 0; i < 500; i++ {
		w, err := dist.NewWeibull(1.4, 9+float64(i)*1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.HitMix(Mix{PFF: 0.2, PRW: 0.2, PPAU: 0.6, FF: w, RW: w, PAU: w}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > before && ms.HeapAlloc-before > 16<<20 {
		t.Errorf("retained heap grew by %.1f MB over 500 distributions, want < 16 MB",
			float64(ms.HeapAlloc-before)/(1<<20))
	}
}

// TestDurCacheSharedAcrossModels checks that a sweep — one Model per
// (B, n) candidate, the same duration distribution throughout — builds
// the distribution's functionals once, even with other distributions
// passing through the cache meanwhile.
func TestDurCacheSharedAcrossModels(t *testing.T) {
	const l = 97.5
	w, err := dist.NewWeibull(1.3, 8.5)
	if err != nil {
		t.Fatal(err)
	}
	first := durFnFor(w, l)
	for n := 1; n <= 40; n++ {
		m := MustNew(cfg(l, l*float64(n)/41, n))
		other := dist.MustExponential(5 + float64(n)*1e-3)
		if _, err := m.HitMix(Mix{PFF: 0.5, PPAU: 0.5, FF: w, PAU: other}); err != nil {
			t.Fatal(err)
		}
		if durFnFor(w, l) != first {
			t.Fatalf("model %d rebuilt the shared distribution's functionals", n)
		}
	}
}

// TestDurCacheConcurrentUse drives the shared cache from several
// goroutines at once, across generation turnovers, and requires every
// evaluation to equal a single-goroutine one; run it under -race.
func TestDurCacheConcurrentUse(t *testing.T) {
	m := MustNew(cfg(120, 60, 8))
	const dists = 3 * durCacheGen
	mixes := make([]Mix, dists)
	want := make([]float64, dists)
	for i := range mixes {
		w, err := dist.NewWeibull(1.2, 7+float64(i)*1e-2)
		if err != nil {
			t.Fatal(err)
		}
		mixes[i] = Mix{PFF: 0.5, PPAU: 0.5, FF: w, PAU: dist.MustGamma(2, 4+float64(i)*1e-2)}
		if want[i], err = m.HitMix(mixes[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < dists; k++ {
				i := (k*7 + g*5) % dists
				if got, err := m.HitMix(mixes[i]); err != nil || got != want[i] {
					t.Errorf("goroutine %d, distribution %d: %v, %v; want %v", g, i, got, err, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
