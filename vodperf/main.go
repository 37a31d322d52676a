// Command vodperf is the repository benchmark. It runs one named
// workload in this process against the repository's public packages and
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics.
//
//	go run . --workload plan-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the run splits its window into an untraced half and a traced half and
// reports the per-layer metrics, the tracing overhead, and writes the
// recorded spans to .bench_build/trace/ under the working directory.
// Every run also prints, on the line before the result, a summary
// object with the workload's own named figures and its exact work
// counts (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
}

// report is what every workload returns: its ops, set-up times and
// end-to-end values (see e2eMetrics), the per-layer values of a traced
// run, its own named figures for the summary line, and the exact work
// counts, which repeat bit for bit at one seed.
type report struct {
	attempted, failed int
	setup             []float64 // seconds, one entry per set-up repetition
	opsPerS           float64
	p50ms, p99ms      float64
	layer             map[string]float64
	summary           map[string]float64
	counts            map[string]uint64
	spans             *recorder
}

func newReport() *report {
	return &report{
		layer:   map[string]float64{},
		summary: map[string]float64{},
		counts:  map[string]uint64{},
	}
}

// e2eMetrics are the end-to-end metrics every workload reports, in
// BENCHMARK.json order.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ok_frac", "ratio"},
	{"rss_peak_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
}

// setupReps is how many times each workload repeats its set-up; the
// median is reported as setup_s.
const setupReps = 5

var workloads = map[string]func(runConfig) (*report, error){
	"plan-cold":  runPlanCold,
	"serve-warm": runServeWarm,
	"simulate":   runSimulate,
}

func main() {
	name := flag.String("workload", "", "workload: plan-cold, serve-warm or simulate")
	seed := flag.Int64("seed", 1, "workload seed; the generator is the only source of inputs")
	seconds := flag.Float64("seconds", 30, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "vodperf: need --workload plan-cold|serve-warm|simulate, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	calib := calibrateMS()
	rep, err := run(runConfig{seed: *seed, seconds: *seconds, traced: *traceFlag == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodperf:", err)
		os.Exit(1)
	}
	rep.summary["machine.calib_ms_before"] = calib
	rep.summary["machine.calib_ms_after"] = calibrateMS()
	rss := peakRSSMB()
	out := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	vals, units := rep.layer, layerMetrics
	if *traceFlag == 0 {
		vals, units = map[string]float64{
			"setup_s":     median(rep.setup),
			"ok_frac":     1 - float64(rep.failed)/float64(rep.attempted),
			"rss_peak_mb": rss,
			"ops_per_s":   rep.opsPerS,
			"p50_ms":      rep.p50ms,
			"p99_ms":      rep.p99ms,
		}, e2eMetrics
	} else if err := writeSpans(*name, *seed, rep.spans); err != nil {
		fmt.Fprintln(os.Stderr, "vodperf:", err)
		os.Exit(1)
	}
	vals = finite(vals)
	for _, m := range units {
		out.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	rep.summary["rss_peak_mb"] = rss
	summary := map[string]any{
		"workload": *name, "seed": *seed, "trace": *traceFlag,
		"figures": finite(rep.summary), "counts": rep.counts,
	}
	if err := printJSON(summary); err != nil {
		fmt.Fprintln(os.Stderr, "vodperf:", err)
		os.Exit(1)
	}
	if err := printJSON(out); err != nil {
		fmt.Fprintln(os.Stderr, "vodperf:", err)
		os.Exit(1)
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// finite maps the +Inf a failed op contributes to a latency figure onto
// a large finite number, which JSON can carry.
func finite(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = math.Min(v, 1e12)
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: fall back to the runtime's view of mapped memory.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// The machine-drift signals on the summary line tell a slower machine
// from slower code: the same fixed computation timed before and after
// the run, and the share of the machine's CPU time the hypervisor took
// (steal) while the run measured.

var calibSink float64

// calibrateMS times a fixed, allocation-free computation and returns
// the median of five timings in milliseconds. It does the same work on
// every run and in every version of the repository.
func calibrateMS() float64 {
	ms := make([]float64, 5)
	for k := range ms {
		t0 := time.Now()
		x := 1.0
		for i := 0; i < 2_000_000; i++ {
			x = math.Sqrt(x + float64(i))
		}
		calibSink += x
		ms[k] = msSince(t0)
	}
	return median(ms)
}

// cpuTimes is the machine-wide steal and total CPU time from
// /proc/stat, in clock ticks; zero where procfs is missing.
type cpuTimes struct{ steal, total uint64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // guest time is already counted in user time
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// stealFrac returns the share of the machine's CPU time stolen since
// from was read.
func stealFrac(from cpuTimes) float64 {
	to := readCPUTimes()
	if to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}

// writeSpans writes the recorded spans of a traced run as JSON lines.
func writeSpans(workload string, seed int64, r *recorder) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.writeTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "vodperf: spans written to", path)
	return nil
}

// median returns the middle value (mean of the middle two), 0 when
// empty.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile by linear interpolation between
// order statistics, 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi == lo || math.IsInf(s[hi], 1) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tailQuantile returns the highest quantile at or below q that leaves
// at least ten samples beyond it, and that quantile's level.
func tailQuantile(xs []float64, q float64) (float64, float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	level := math.Min(q, (n-10)/n)
	if level < 0.5 {
		level = 0.5
	}
	return quantile(xs, level), level
}

// sample is one completed op: when it completed, in seconds since its
// measured window began, and its latency in milliseconds.
type sample struct{ at, ms float64 }

// windowS is the width, in seconds, of the windows whose median the
// closed-loop workloads report as ops_per_s and p50_ms. Their tails are
// over the whole run: a window holds too few ops for one.
const windowS = 5.0

// windows splits the latencies of the samples into consecutive windows
// of windowS (or one window, in a shorter run) over a measured window
// of total seconds, leaving out a last, partial window, and returns the
// windows and their width. Reporting the median over windows means a
// short disturbance of the machine moves one window, not the figure.
func windows(xs []sample, total float64) ([][]float64, float64) {
	width := math.Min(windowS, total)
	ws := make([][]float64, int(total/width))
	for _, s := range xs {
		if k := int(s.at / width); k < len(ws) {
			ws[k] = append(ws[k], s.ms)
		}
	}
	return ws, width
}

// windowMedian returns the median over windows of stat of each window's
// latencies.
func windowMedian(xs []sample, total float64, stat func([]float64) float64) float64 {
	ws, _ := windows(xs, total)
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = stat(w)
	}
	return median(vals)
}

// windowRate returns the median over windows of the ops completed per
// second.
func windowRate(xs []sample, total float64) float64 {
	ws, width := windows(xs, total)
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = float64(len(w)) / width
	}
	return median(vals)
}

func tail99(xs []float64) float64 {
	v, _ := tailQuantile(xs, 0.99)
	return v
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
