package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// arrival is one scheduled request: when it is due, as an offset from the
// phase start, and which workload query it sends.
type arrival struct {
	due time.Duration
	q   int
}

// schedule draws an open-loop Poisson arrival stream at rate requests per
// second over dur, choosing each request's query with pick. The same seed
// yields the same stream.
func schedule(seed int64, rate float64, dur time.Duration, pick func(*rand.Rand) int) []arrival {
	r := rand.New(rand.NewSource(seed))
	var out []arrival
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, arrival{due: time.Duration(t * float64(time.Second)), q: pick(r)})
	}
}

// outcome is what one request reports back to the generator.
type outcome struct {
	firstRow time.Time // when the first result row was in hand
	done     time.Time // when the complete answer was in hand
	rows     int
	err      error // transport failure, server error or wrong answer
}

// sendFunc sends workload query q and waits for its complete answer.
type sendFunc func(ctx context.Context, q int) outcome

// sample is one request's measurement. Times are milliseconds from the
// moment the request was due, so a stalled generator or a saturated
// server shows up as latency of the requests that had to wait.
type sample struct {
	lat  float64 // due → complete answer; +Inf when failed or never sent
	ttfr float64 // due → first row; +Inf when failed or never sent
	lag  float64 // due → sent (generator lateness)
	rows int
	sent bool
	err  error
}

// sinceMS is the time from due to t in milliseconds.
func sinceMS(due, t time.Time) float64 { return float64(t.Sub(due)) / float64(time.Millisecond) }

// runPhase plays arrivals open-loop on workers goroutines, each holding
// at most one request in flight. A worker takes the next arrival, sleeps
// until it is due (or sends at once when it is already late) and times
// the request from its due time. Arrivals still unsent grace after the
// last one was due are abandoned and recorded with +Inf latency.
func runPhase(ctx context.Context, arrivals []arrival, workers int, grace time.Duration, send sendFunc) []sample {
	out := make([]sample, len(arrivals))
	start := time.Now()
	var cutoff time.Time
	if n := len(arrivals); n > 0 {
		cutoff = start.Add(arrivals[n-1].due + grace)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				due := start.Add(a.due)
				waitUntil(due)
				sent := time.Now()
				if sent.After(cutoff) || ctx.Err() != nil {
					out[i] = sample{lat: math.Inf(1), ttfr: math.Inf(1), lag: sinceMS(due, sent)}
					continue
				}
				o := send(ctx, a.q)
				s := sample{lag: sinceMS(due, sent), rows: o.rows, sent: true, err: o.err}
				if o.err != nil {
					s.lat, s.ttfr = math.Inf(1), math.Inf(1)
				} else {
					s.lat, s.ttfr = sinceMS(due, o.done), sinceMS(due, o.firstRow)
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// spinWindow is the final stretch before a due time that a worker
// spins through instead of sleeping: an idle Go process wakes from a
// sleep at millisecond granularity, which would add up to a millisecond
// of generator lag to every request.
const spinWindow = 1200 * time.Microsecond

// waitUntil returns at t: it sleeps until spinWindow before t, then
// yields the processor in a loop (letting the server's goroutines run)
// until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runClosed keeps workers sending back-to-back for d, cycling through
// the query sequence qs, and counts the requests. With no waiting between
// requests the process's CPU time over the run is all request work.
func runClosed(ctx context.Context, qs []int, workers int, d time.Duration, send sendFunc) counts {
	stop := time.Now().Add(d)
	var (
		mu sync.Mutex
		c  counts
		wg sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) && ctx.Err() == nil {
				mu.Lock()
				q := qs[c.sent%len(qs)]
				c.sent++
				mu.Unlock()
				if err := send(ctx, q).err; err != nil {
					mu.Lock()
					c.fail(err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return c
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counts tallies requests sent and failed, keeping the first failure
// for the report.
type counts struct {
	sent, failed int
	firstErr     error
}

func (c *counts) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// merge adds o's tally.
func (c *counts) merge(o counts) {
	c.sent += o.sent
	c.failed += o.failed
	if c.firstErr == nil {
		c.firstErr = o.firstErr
	}
}

// count tallies samples without keeping their times.
func (c *counts) count(samples []sample) {
	for _, s := range samples {
		if s.sent {
			c.sent++
			if s.err != nil {
				c.fail(s.err)
			}
		}
	}
}

// phaseStats summarises one phase.
type phaseStats struct {
	counts
	n               int
	lat, ttfr, lags []float64 // lags in arrival order
	rows            int
}

func summarise(samples []sample) phaseStats {
	var st phaseStats
	st.add(samples)
	return st
}

// add appends a slice's samples.
func (st *phaseStats) add(samples []sample) {
	st.n += len(samples)
	st.count(samples)
	for _, s := range samples {
		st.lat = append(st.lat, s.lat)
		st.ttfr = append(st.ttfr, s.ttfr)
		st.lags = append(st.lags, s.lag)
		st.rows += s.rows
	}
}

// unsent counts arrivals abandoned at the phase cut-off.
func (st phaseStats) unsent() int { return st.n - st.sent }
