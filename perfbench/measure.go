package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/coin"
	"repro/internal/server"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median and the last set-up system is measured.
const setupReps = 5

// A run's measured seconds are played as rounds. Each round has a slice
// at the low rate, a slice at the high rate, a closed-loop slice and one
// slo_qps ladder probe, so a stretch of host slowdown touches every
// metric a little instead of one of them wholly, and the per-window
// medians set it aside.
const (
	rounds = 10
	// Shares of a round.
	lowShare    = 0.35
	highShare   = 0.10
	closedShare = 0.20 // the probe gets the rest
	// stairStart is where the slo_qps staircase starts, in rungs above
	// the high rate: 1.05^8 ≈ 1.48, the slo_qps the high rate was frozen
	// at (high ≈ ⅔ of it).
	stairStart = 8
)

// phaseSeed derives the schedule seed of one phase from the run's seed.
func phaseSeed(seed int64, phase int) int64 { return seed*1_000_003 + int64(phase) }

// workers is the client concurrency: one goroutine and at most one
// connection per CPU.
func workers() int { return runtime.NumCPU() }

// untraced builds and starts the system as measured: the shipped
// constructor where there is one, the identity wrap otherwise.
func untraced(in *inputs) (*instance, error) {
	sys, release, err := measuredSystem(in)
	if err != nil {
		return nil, err
	}
	return startInstance(sys, sys.Handler(), release, in.queries, nil)
}

func measuredSystem(in *inputs) (*coin.System, func(), error) {
	if in.shipped != nil {
		return in.shipped(), func() {}, nil
	}
	return in.build(identity)
}

// measure is the end-to-end run: set-up timed setupReps times, then the
// rounds, each playing the low rate, the high rate, a closed-loop slice
// for the CPU cost and one step of the slo_qps staircase.
func measure(wl workload, seed int64, seconds int, root string) (result, error) {
	in, err := wl.prepare(seed, root)
	if err != nil {
		return result{}, err
	}
	var (
		setups []float64
		inst   *instance
	)
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if inst, err = untraced(in); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	ctx := context.Background()
	roundLen := time.Duration(seconds) * time.Second / rounds
	share := func(f float64) time.Duration { return time.Duration(f * float64(roundLen)) }
	probeLen := roundLen - share(lowShare) - share(highShare) - share(closedShare)
	send := sender(inst.conn, in.queries, nil)
	grace := max(time.Second, time.Duration(20*wl.limitMS*float64(time.Millisecond)))
	probeGrace := time.Duration(wl.limitMS * float64(time.Millisecond))
	phase := func(k int, rate float64, d, grace time.Duration) []sample {
		return runPhase(ctx, schedule(phaseSeed(seed, k), rate, d, in.newPicker()), workers(), grace, send)
	}
	// The closed-loop slices cycle through one seeded query sequence.
	closedSeq := make([]int, 4096)
	pick, rng := in.newPicker(), rand.New(rand.NewSource(phaseSeed(seed, -1)))
	for i := range closedSeq {
		closedSeq[i] = pick(rng)
	}
	var (
		low, high     phaseStats
		closed, probe counts
		cpuPerQuery   []float64
	)
	stair := newStaircase(ladderRung(wl.high) + stairStart)
	for r := 0; r < rounds; r++ {
		low.add(phase(3*r, wl.low, share(lowShare), grace))
		high.add(phase(3*r+1, wl.high, share(highShare), grace))
		c0 := cpuTime()
		c := runClosed(ctx, closedSeq, workers(), share(closedShare), send)
		cpuPerQuery = append(cpuPerQuery, float64(cpuTime()-c0)/float64(time.Millisecond)/float64(max(c.sent, 1)))
		closed.merge(c)
		ps := phase(3*r+2, ladderRate(stair.rung), probeLen, probeGrace)
		p := summarise(ps)
		stair.record(verdict(p.lat, p.lags, p.unsent(), wl.limitMS))
		probe.count(ps)
	}
	attempted, failed := tally(low.counts, high.counts, closed, probe)

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}, Info: map[string]metric{}}
	res.set("setup_s", median(setups), "s")
	res.set("lat_p50_ms.low", bestP50(low.lat), "ms")
	res.set("cpu_ms_per_query", median(cpuPerQuery), "ms")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	// Printed, not gated: on a shared two-core virtual machine these
	// moved with the host far more than with the code (see README).
	res.info("ttfr_p50_ms.low", bestP50(low.ttfr), "ms")
	res.info("lat_p90_ms.low", bestP90(low.lat), "ms")
	res.info("lat_p99_ms.low", bestP99(low.lat), "ms")
	res.info("lat_p50_ms.high", bestP50(high.lat), "ms")
	res.info("lat_p90_ms.high", bestP90(high.lat), "ms")
	res.info("lat_p99_ms.high", bestP99(high.lat), "ms")
	res.info("slo_qps", stair.rate(), "1/s")
	res.info("failed_frac", float64(failed)/float64(max(attempted, 1)), "ratio")
	fmt.Fprintf(os.Stderr, "perfbench: samples low=%d high=%d; ladder rungs %v\n", low.n, high.n, stair.visited)
	return res, nil
}

// tally counts the requests sent and failed over phases, and reports the
// first failure on standard error.
func tally(phases ...counts) (attempted, failed int) {
	var all counts
	for _, p := range phases {
		all.merge(p)
	}
	if all.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed; the first: %v\n", all.failed, all.sent, all.firstErr)
	}
	return all.sent, all.failed
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// procSample holds the runtime counters behind proc.*.
type procSample struct{ allocBytes, gcCPU, totalCPU, idleCPU float64 }

// add accumulates the change from before to after.
func (p *procSample) add(after, before procSample) {
	p.allocBytes += after.allocBytes - before.allocBytes
	p.gcCPU += after.gcCPU - before.gcCPU
	p.totalCPU += after.totalCPU - before.totalCPU
	p.idleCPU += after.idleCPU - before.idleCPU
}

func readProc() procSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return procSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		idleCPU:    s[3].Value.Float64(),
	}
}

// traceRun gives the per-layer metrics. The system as measured and a
// traced twin run side by side; each of the rounds plays one low-rate
// schedule against the untraced system (process counters, generator lag,
// the untraced p50), then the same schedule against the twin, whose
// spans are analysed. Alternating keeps host drift out of the tracing
// overhead.
func traceRun(wl workload, seed int64, seconds int, root, out string) (result, error) {
	in, err := wl.prepare(seed, root)
	if err != nil {
		return result{}, err
	}
	// Both clients send through the transport that tags traced requests
	// with their id, so the two paths differ only in the tracing.
	orig := http.DefaultTransport
	http.DefaultTransport = idTransport{base: orig}
	defer func() { http.DefaultTransport = orig }()

	inst, err := untraced(in)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	t := newTracer()
	twin, release, err := in.build(t.newShim)
	if err != nil {
		return result{}, err
	}
	if err := sameExplain(in, twin); err != nil {
		release()
		return result{}, err
	}
	handler := t.tracedHandler(server.New(tracedService{System: twin, t: t, pending: &sync.Map{}}))
	tinst, err := startInstance(twin, handler, release, in.queries, t)
	if err != nil {
		return result{}, err
	}
	defer tinst.close()

	ctx := context.Background()
	slice := time.Duration(seconds) * time.Second / (2 * rounds)
	grace := max(time.Second, time.Duration(20*wl.limitMS*float64(time.Millisecond)))
	plainSend, tracedSend := sender(inst.conn, in.queries, nil), sender(tinst.conn, in.queries, t)
	var (
		plain, traced phaseStats
		proc          procSample
	)
	t.reset()
	s0 := twin.Executor().Stats()
	for r := 0; r < rounds; r++ {
		arrivals := schedule(phaseSeed(seed, r), wl.low, slice, in.newPicker())
		p0 := readProc()
		plain.add(runPhase(ctx, arrivals, workers(), grace, plainSend))
		proc.add(readProc(), p0)
		traced.add(runPhase(ctx, arrivals, workers(), grace, tracedSend))
	}
	s1 := twin.Executor().Stats()

	spansFile := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))
	if err := t.writeSpans(spansFile); err != nil {
		return result{}, err
	}
	attempted, failed := tally(plain.counts, traced.counts)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	layers := analyze(t.snapshot())
	layers.report(&res, t.maxInfl.Load())

	q := float64(max(traced.sent, 1))
	res.set("planner.source_queries", float64(s1.SourceQueries-s0.SourceQueries)/q, "count")
	res.set("planner.cache_hits", float64(s1.CacheHits-s0.CacheHits)/q, "count")
	tuples := float64(s1.TuplesTransferred - s0.TuplesTransferred)
	res.set("planner.tuples_transferred", tuples/q, "count")
	res.set("planner.rows_per_tuple", float64(traced.rows)/max(tuples, 1), "ratio")
	res.set("planner.retries", float64(s1.Retries-s0.Retries), "count")
	res.set("server.bytes_per_row", float64(layers.bytes)/float64(max(traced.rows, 1)), "B")

	res.set("proc.alloc_kb_per_query", proc.allocBytes/1024/float64(max(plain.sent, 1)), "KiB")
	res.set("proc.gc_cpu_frac", proc.gcCPU/max(proc.totalCPU-proc.idleCPU, 1e-9), "ratio")
	res.set("harness.gen_lag_p99_ms", percentile(plain.lags, 99), "ms")
	res.set("harness.trace_overhead_pct", 100*(median(traced.lat)/median(plain.lat)-1), "%")
	fmt.Fprintf(os.Stderr, "perfbench: spans=%d written to %s\n", layers.spans, spansFile)
	return res, nil
}

// sameExplain checks that tracing does not change any plan: for every
// workload query the traced twin's EXPLAIN text equals that of a fresh
// untraced system, both cold.
func sameExplain(in *inputs, twin *coin.System) error {
	ref, release, err := measuredSystem(in)
	if err != nil {
		return err
	}
	defer release()
	for _, q := range in.queries {
		want, err := explain(ref, q)
		if err != nil {
			return fmt.Errorf("explain %q: %w", q.SQL, err)
		}
		got, err := explain(twin, q)
		if err != nil {
			return fmt.Errorf("explain %q under tracing: %w", q.SQL, err)
		}
		if got != want {
			return fmt.Errorf("tracing changes the plan of %q:\n--- untraced\n%s--- traced\n%s", q.SQL, want, got)
		}
	}
	return nil
}
