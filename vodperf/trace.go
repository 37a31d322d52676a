package main

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one client
// request share Req; Parent names the span that caused this one (0 for
// a root). Start and End are nanoseconds since the recorder's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is a work count recorded at the boundary (evaluations,
	// events fired, arrivals), 0 when none applies.
	Count uint64 `json:"count,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID and start time.
func (r *recorder) begin() (uint64, time.Time) {
	if r == nil {
		return 0, time.Time{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return id, time.Now()
}

// end closes a span opened by begin.
func (r *recorder) end(id, parent, req uint64, name string, start time.Time, count uint64) {
	if r == nil {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Count: count,
	})
	r.mu.Unlock()
}

// byName returns the durations, in milliseconds, of the spans named
// name.
func (r *recorder) byName(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// spansOf returns the spans recorded for request req.
func (r *recorder) spansOf(req uint64) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Req == req {
			out = append(out, s)
		}
	}
	return out
}

// selfMS returns, for every span whose name starts with prefix, its
// duration minus the part its child spans cover, in milliseconds.
func (r *recorder) selfMS(prefix string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := map[uint64]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range r.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, float64(s.End-s.Start-child[s.ID])/1e6)
		}
	}
	return out
}

func (r *recorder) writeTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// layerMetrics are the per-layer metrics of a traced run, in
// BENCHMARK.json order. Every workload reports all of them; a layer the
// workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"httpapi.handler_ms.hit", "ms"},
	{"httpapi.handler_ms.plan", "ms"},
	{"httpapi.handler_ms.curve", "ms"},
	{"httpapi.transport_us", "us"},
	{"httpapi.hit_over_hitmix", "ratio"},
	{"httpapi.shed", "count"},
	{"httpapi.timeouts", "count"},
	{"sizing.evals_per_sweep", "count"},
	{"sizing.sweep_ms", "ms"},
	{"sizing.self_ms", "ms"},
	{"sizing.cache_hit_ratio", "ratio"},
	{"parallel.speedup_2w", "ratio"},
	{"parallel.tokens_busy_frac", "ratio"},
	{"analytic.hitmix_ms.gamma_int", "ms"},
	{"analytic.hitmix_ms.gamma_frac", "ms"},
	{"analytic.hitmix_ms.exp", "ms"},
	{"analytic.hitmix_ms.grid", "ms"},
	{"analytic.evals_per_s", "1/s"},
	{"sim.des_events_per_vmin", "count"},
	{"sim.des_ns_per_event", "ns"},
	{"sim.des_allocs_per_event", "count"},
	{"fluid.events_per_vmin", "count"},
	{"fluid.ns_per_event", "ns"},
	{"cluster.sim_ms_per_node", "ms"},
	{"cluster.churn_us_per_arrival.blind", "us"},
	{"cluster.churn_us_per_arrival.hedge", "us"},
	{"cluster.hedges", "count"},
	{"cluster.quarantines", "count"},
	{"cluster.migrations", "count"},
	{"trace.overhead_frac", "ratio"},
}
