package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"vodalloc/internal/httpapi"
	"vodalloc/internal/sizing"
)

// stack is the hardened service from httpapi.New, served over loopback
// inside the benchmark process, plus the client that drives it. The
// client holds at most nproc connections.
type stack struct {
	eval   *sizing.Evaluator
	srv    *http.Server
	base   string
	client *http.Client
	// probe reads /statusz on its own connection, so sampling the
	// gauges in a traced run never waits behind the load.
	probe  *http.Client
	served chan error
	rec    *recorder
}

const (
	hdrReq  = "X-Vodperf-Req"
	hdrSpan = "X-Vodperf-Span"
)

// startStack serves httpapi.New on a loopback port. With a recorder the
// handler is wrapped so each traced request records a server-side span.
func startStack(rec *recorder) (*stack, error) {
	eval := &sizing.Evaluator{}
	var h http.Handler = httpapi.New(httpapi.Options{Evaluator: eval})
	if rec != nil {
		h = traceHandler(rec, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	nproc := runtime.NumCPU()
	s := &stack{
		eval: eval,
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		}},
		probe:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
		served: make(chan error, 1),
		rec:    rec,
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the server down and waits for its serve loop to return.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.probe.CloseIdleConnections()
	return err
}

// traceHandler records a span around every traced request the service
// handles, linked to the client span named in the request headers.
// Requests without the headers pass straight through.
func traceHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(hdrReq) == "" {
			next.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		id, t0 := rec.begin()
		next.ServeHTTP(w, r)
		rec.end(id, parent, req, "handler "+r.URL.Path, t0, 0)
	})
}

// reply is one finished request as the client saw it.
type reply struct {
	status int
	body   []byte
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// post sends one JSON request. When traced, the request and its handler
// record spans numbered req.
func (s *stack) post(path string, body []byte, req uint64, traced bool) reply {
	var rec *recorder
	if traced {
		rec = s.rec
	}
	id, t0 := rec.begin()
	hr, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	hr.Header.Set("Content-Type", "application/json")
	if rec != nil {
		hr.Header.Set(hdrReq, strconv.FormatUint(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return reply{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end(id, 0, req, "client "+path, t0, 0)
	return reply{status: resp.StatusCode, body: b, err: err}
}

// statusz reads the service's introspection gauges.
func (s *stack) statusz() (httpapi.StatusResponse, error) {
	var st httpapi.StatusResponse
	resp, err := s.probe.Get(s.base + "/statusz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statusz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// observe runs the traced stretch fn while sampling the worker pool,
// and records the per-layer figures the service's own gauges and the
// spans give for that stretch: parallel.tokens_busy_frac,
// sizing.cache_hit_ratio and httpapi.transport_us. It returns the
// evaluator misses over the stretch.
func (s *stack) observe(rep *report, fn func()) (uint64, error) {
	before, err := s.statusz()
	if err != nil {
		return 0, err
	}
	stop := make(chan struct{})
	busy := make(chan float64, 1)
	go func() { busy <- s.sampleTokens(20*time.Millisecond, stop) }()
	fn()
	close(stop)
	rep.layer["parallel.tokens_busy_frac"] = <-busy
	after, err := s.statusz()
	if err != nil {
		return 0, err
	}
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	if hits+misses > 0 {
		rep.layer["sizing.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	rep.layer["httpapi.transport_us"] = 1000 * median(s.rec.selfMS("client "))
	rep.spans = s.rec
	return misses, nil
}

// sampleTokens samples the shared sizing worker pool's occupancy from
// /statusz every interval until stop closes, and returns the mean busy
// fraction.
func (s *stack) sampleTokens(interval time.Duration, stop <-chan struct{}) float64 {
	var sum float64
	var n int
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		case <-t.C:
			st, err := s.statusz()
			if err == nil && st.WorkerCap > 0 {
				sum += float64(st.WorkerTokens) / float64(st.WorkerCap)
				n++
			}
		}
	}
}

// httpOutcome classifies a failed reply for the shed/timeout counters:
// 503 with the timeout body is a timeout, any other 503 a shed.
func httpOutcome(r reply) (shed, timeout bool) {
	if r.err != nil || r.status != http.StatusServiceUnavailable {
		return false, false
	}
	if bytes.Contains(r.body, []byte("timed out")) {
		return false, true
	}
	return true, false
}
