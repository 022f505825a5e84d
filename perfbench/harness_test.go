package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
)

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	inf := math.Inf(1)
	if got := percentile([]float64{3, 1, inf, 2}, 50); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	// One failure in 50 requests is more than 1%: p99 is +Inf.
	lat := make([]float64, 50)
	for i := range lat {
		lat[i] = float64(i)
	}
	lat[7] = inf
	if got := percentile(lat, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failed = %v, want +Inf", got)
	}
	// One failure in 200 is within the top 1%: p99 stays finite.
	lat = make([]float64, 200)
	for i := range lat {
		lat[i] = float64(i)
	}
	lat[0] = inf // the sorted samples are 1..199, +Inf
	if got := percentile(lat, 99); got != 198 {
		t.Errorf("p99 with 0.5%% failed = %v, want 198", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	pick := func(r *rand.Rand) int { return r.Intn(7) }
	a := schedule(42, 500, 2*time.Second, pick)
	b := schedule(42, 500, 2*time.Second, pick)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := schedule(43, 500, 2*time.Second, pick); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Poisson at 500/s over 2s: 1000 expected, sd ≈ 32.
	if n := len(a); n < 850 || n > 1150 {
		t.Errorf("%d arrivals, want about 1000", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
	}
}

func TestLatencyTimedFromDueTime(t *testing.T) {
	// One worker, two requests due 1ms apart, each taking 30ms: the
	// second waits behind the first, and that wait is its latency too.
	arrivals := []arrival{{due: 0, q: 0}, {due: time.Millisecond, q: 1}}
	send := func(ctx context.Context, q int) outcome {
		time.Sleep(30 * time.Millisecond)
		now := time.Now()
		return outcome{firstRow: now, done: now, rows: 1}
	}
	s := runPhase(context.Background(), arrivals, 1, time.Second, send)
	if s[1].lag < 25 {
		t.Errorf("second request lag = %.1fms, want >= 25ms (sent after the first finished)", s[1].lag)
	}
	if s[1].lat < s[1].lag+25 {
		t.Errorf("second request latency = %.1fms, want its %.1fms wait plus its 30ms service", s[1].lat, s[1].lag)
	}
	if s[0].lat < 25 || s[0].lag > 15 {
		t.Errorf("first request lat=%.1fms lag=%.1fms", s[0].lat, s[0].lag)
	}
}

func TestRunPhaseAbandonsBacklogAtCutoff(t *testing.T) {
	var arrivals []arrival
	for i := 0; i < 20; i++ {
		arrivals = append(arrivals, arrival{due: time.Duration(i) * time.Millisecond})
	}
	send := func(ctx context.Context, q int) outcome {
		time.Sleep(20 * time.Millisecond)
		now := time.Now()
		return outcome{firstRow: now, done: now}
	}
	st := summarise(runPhase(context.Background(), arrivals, 1, 5*time.Millisecond, send))
	if st.unsent() == 0 {
		t.Fatal("an overloaded phase left nothing unsent")
	}
	if !math.IsInf(percentile(st.lat, 99), 1) {
		t.Error("unsent requests must count as +Inf latency")
	}
}

func TestLadderVerdict(t *testing.T) {
	flat := func(n int, v float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	lat, lags := flat(400, 3), flat(400, 0.1)
	if !verdict(lat, lags, 0, 10) {
		t.Error("p99 3ms under a 10ms limit with a steady backlog should pass")
	}
	if verdict(lat, lags, 1, 10) {
		t.Error("an unsent request must fail the probe")
	}
	over := append(flat(390, 3), flat(10, 11)...)
	if verdict(over, lags, 0, 10) {
		t.Error("p99 above the limit must fail the probe")
	}
	growing := make([]float64, 400)
	for i := range growing {
		growing[i] = float64(i) / 40 // lag climbs to 10ms over the probe
	}
	if verdict(lat, growing, 0, 10) {
		t.Error("a growing backlog must fail the probe even under the limit")
	}
}

func TestStaircaseSettlesOnHighestPassingRung(t *testing.T) {
	const top = 60 // highest rung that meets the limit
	for _, start := range []int{top - 9, top + 7} {
		s := newStaircase(start)
		for i := 0; i < 12; i++ {
			s.record(s.rung <= top)
		}
		if got := s.rate(); got != ladderRate(top) {
			t.Errorf("from rung %d: slo rate %.1f, want rung %d's %.1f (visited %v)", start, got, top, ladderRate(top), s.visited)
		}
	}
	// One probe upset by the host moves the result by at most a rung.
	s := newStaircase(top)
	for i := 0; i < 12; i++ {
		s.record(s.rung <= top && i != 7)
	}
	if got := s.rate(); got < ladderRate(top-1) || got > ladderRate(top) {
		t.Errorf("with one spurious failure: %.1f, want within a rung below %.1f", got, ladderRate(top))
	}
	if r := ladderRate(ladderRung(777)); r > 777 || r*ladderStep <= 777 {
		t.Errorf("ladderRung(777) is rate %.2f", r)
	}
}

func TestBestWindowSetsStallsAside(t *testing.T) {
	// Five windows of 1000; in two (host stalls) everything is slower.
	var xs []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 1000; i++ {
			v := 1 + float64(i)/1000
			if w == 1 || w == 3 {
				v *= 3
			}
			xs = append(xs, v)
		}
	}
	if got, want := bestWindow(xs, 99, 1000, 5), percentile(xs[:1000], 99); got != want {
		t.Errorf("best-window p99 = %v, want the unstalled windows' %v", got, want)
	}
	if got, want := bestWindow(xs[:1500], 99, 1000, 5), percentile(xs[:1500], 99); got != want {
		t.Errorf("under two windows: %v, want the plain percentile %v", got, want)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	// [10,40) and [30,60) overlap: together they cover 50, not 60; the
	// third child is clipped to the parent at 100.
	children := []interval{{30, 60}, {10, 40}, {90, 120}}
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("self = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self without children = %d, want 100", got)
	}
	if got := selfTime(parent, []interval{{0, 100}, {20, 30}}); got != 0 {
		t.Errorf("fully covered self = %d, want 0", got)
	}
}

func TestAnalyzeSelfTimesSumToRoundTrip(t *testing.T) {
	// client 0-1000 > server 100-900 > service 150-850 > parse, mediate,
	// plan, exec 400-850 > two wrapper calls.
	spans := []span{
		{ID: 1, Req: 1, Layer: lClient, Start: 0, End: 1000},
		{ID: 2, Parent: 1, Req: 1, Layer: lServer, Start: 100, End: 900},
		{ID: 3, Parent: 2, Req: 1, Layer: lService, Start: 150, End: 850},
		{ID: 4, Parent: 3, Req: 1, Layer: lParse, Start: 150, End: 200},
		{ID: 5, Parent: 3, Req: 1, Layer: lMediate, Start: 200, End: 300, Rows: 3},
		{ID: 6, Parent: 3, Req: 1, Layer: lPlan, Start: 300, End: 400},
		{ID: 7, Parent: 3, Req: 1, Layer: lExec, Start: 400, End: 850},
		{ID: 8, Parent: 7, Req: 1, Layer: lWrapper, Backend: bMem, Access: true, Start: 450, End: 550, Rows: 5},
		{ID: 9, Parent: 7, Req: 1, Layer: lWrapper, Backend: bMem, Start: 600, End: 700, Rows: 5},
	}
	ls := analyze(spans)
	if ls.reqs != 1 || len(ls.selfSumPct) != 1 || ls.selfSumPct[0] != 100 {
		t.Fatalf("reqs=%d selfSumPct=%v, want one request summing to 100%%", ls.reqs, ls.selfSumPct)
	}
	want := map[layer]float64{lClient: 0.2, lServer: 0.1, lService: 0, lParse: 0.05, lMediate: 0.1, lPlan: 0.1, lExec: 0.25, lWrapper: 0.2}
	for l, w := range want {
		if got := ls.self[l][0]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s self = %vus, want %vus", layerNames[l], got, w)
		}
	}
	if ls.calls != 1 || ls.rows != 10 || ls.branches != 3 || ls.busy[bMem] != 0.2 {
		t.Errorf("calls=%v rows=%v branches=%v busy=%v", ls.calls, ls.rows, ls.branches, ls.busy[bMem])
	}
}

// statsOnly implements Statser but not Streamer.
type statsOnly struct{ wrapper.Wrapper }

func (statsOnly) DistinctCount(context.Context, string, string) (int, bool) { return 1, true }

// streamOnly implements Streamer but not Statser.
type streamOnly struct{ wrapper.Wrapper }

func (streamOnly) QueryStream(context.Context, wrapper.SourceQuery) (wrapper.TupleStream, error) {
	return wrapper.NewRelationStream(relalg.NewRelation("t", relalg.NewSchema())), nil
}

func TestShimExposesExactlyTheWrappedInterfaces(t *testing.T) {
	db := store.NewDB("db")
	db.MustCreateTable("t", relalg.NewSchema(strCol("a")))
	rel := wrapper.NewRelational(db)
	tr := newTracer()
	for _, w := range []wrapper.Wrapper{
		rel,
		wrapper.NewWeb("web", nil),
		statsOnly{rel},
		streamOnly{rel},
	} {
		s := tr.newShim(w)
		_, ws := w.(wrapper.Streamer)
		_, ss := s.(wrapper.Streamer)
		_, wt := w.(wrapper.Statser)
		_, st := s.(wrapper.Statser)
		if ws != ss || wt != st {
			t.Errorf("%T: streamer %v->%v, statser %v->%v", w, ws, ss, wt, st)
		}
	}
	// A batch-capable source stream stays batch-capable under the shim.
	ts, err := tr.newShim(rel).(wrapper.Streamer).QueryStream(context.Background(), wrapper.SourceQuery{Relation: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if _, ok := ts.(wrapper.BatchStream); !ok {
		t.Error("shimmed relational stream lost NextBatch")
	}
}

// TestBenchmarkJSONMatchesWorkloads keeps BENCHMARK.json's workload list
// and the rates and limits quoted in each "why" in step with the code.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		wl, ok := findWorkload(w.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the code", w.Name)
			continue
		}
		if quote := rateQuote(wl); !strings.Contains(w.Why, quote) {
			t.Errorf("%s: why %q does not quote %q", w.Name, w.Why, quote)
		}
	}
}

func rateQuote(wl workload) string {
	return fmt.Sprintf("low %g/s, high %g/s, p99 limit %g ms", wl.low, wl.high, wl.limitMS)
}
