package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule. A failed or unsent request is recorded as +Inf, so
// it sorts above every real latency: once more than (100-p)% of the
// requests failed, the percentile itself is +Inf. An empty input has no
// percentile and yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// bestWindow is the lowest p-th percentile among up to maxWindows
// consecutive windows of xs (in arrival order) of at least minWindow
// samples each. Like the minimum of repeated timings, it is the figure
// least disturbed by the host: a stretch in which the hypervisor runs
// other tenants on this machine's cores (steal) raises the windows it
// covers, while a slower program raises every window. Fewer samples than
// two windows' worth give the plain percentile.
func bestWindow(xs []float64, p float64, minWindow, maxWindows int) float64 {
	w := min(maxWindows, len(xs)/minWindow)
	if w < 2 {
		return percentile(xs, p)
	}
	best := math.Inf(1)
	for i := 0; i < w; i++ {
		best = min(best, percentile(xs[i*len(xs)/w:(i+1)*len(xs)/w], p))
	}
	return best
}

// Windows hold enough samples that each window's percentile has ten or
// more beyond it.
func bestP50(xs []float64) float64 { return bestWindow(xs, 50, 20, 9) }
func bestP90(xs []float64) float64 { return bestWindow(xs, 90, 100, 9) }
func bestP99(xs []float64) float64 { return bestWindow(xs, 99, 1000, 5) }

// ladderRate is rung k of the fixed geometric rate ladder: rungs are
// ladderStep apart (5%), so slo_qps is resolved to one rung.
func ladderRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

const (
	ladderBase = 10.0 // requests per second at rung 0
	ladderStep = 1.05
)

// staircase searches the ladder one probe at a time: up after a probe
// that meets the limit, down after one that does not, two rungs a step
// until the first reversal and one after. It settles around the rung
// where the limit is just met and keeps probing there, so a probe upset
// by the host moves it one rung for one probe rather than ending the
// search on the wrong side.
type staircase struct {
	rung, step int
	last       int // verdict of the previous probe: -1 none, 0 fail, 1 pass
	visited    []float64
}

func newStaircase(start int) *staircase { return &staircase{rung: start, step: 2, last: -1} }

// record takes the verdict of a probe at the current rung and moves.
func (s *staircase) record(pass bool) {
	s.visited = append(s.visited, float64(s.rung))
	v := 0
	if pass {
		v = 1
	}
	if s.last >= 0 && v != s.last {
		s.step = 1
	}
	s.last = v
	if pass {
		s.rung += s.step
	} else {
		s.rung -= s.step
	}
}

// rate is slo_qps: the median rung visited after the first third of the
// probes (the approach), as a rate. With a sharp limit the staircase
// alternates between the highest passing rung and the one above, and the
// median is the passing one.
func (s *staircase) rate() float64 {
	return ladderRate(int(median(s.visited[len(s.visited)/3:])))
}

// ladderRung is the highest rung whose rate does not exceed rate.
func ladderRung(rate float64) int {
	return int(math.Floor(math.Log(rate/ladderBase)/math.Log(ladderStep) + 1e-9))
}

// verdict decides one ladder probe: the rate is sustainable when every
// scheduled request was sent before the probe's cut-off, the p99 latency
// (timed from the due time, failures +Inf) meets the limit, and the
// backlog is not growing — the generator lag over the last quarter of
// the probe does not exceed that of the first quarter by more than half
// the limit. lags are in send order.
func verdict(lat, lags []float64, unsent int, limitMS float64) bool {
	if unsent > 0 || len(lat) == 0 {
		return false
	}
	if percentile(lat, 99) > limitMS {
		return false
	}
	q := len(lags) / 4
	if q == 0 {
		return true
	}
	return median(lags[len(lags)-q:]) <= median(lags[:q])+limitMS/2
}

// interval is a closed-open time range in nanoseconds.
type interval struct{ start, end int64 }

// coveredLen is the length of the union of ivs clipped to [lo, hi):
// overlapping intervals (parallel branches, partitioned scans) are
// merged first, so time two children share is counted once.
func coveredLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, iv := range clipped {
		if curE < curS || iv.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - coveredLen(children, parent.start, parent.end)
}
