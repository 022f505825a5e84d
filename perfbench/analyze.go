package main

// Span analysis: per-request self time by layer and per-backend busy
// time, turned into the per-layer metrics.

// layerStats aggregates the spans of every traced request.
type layerStats struct {
	spans, reqs int
	bytes       int64                // response bytes written by the handler
	self        [numLayers][]float64 // per request, µs
	busy        [numBackends]float64 // total wrapper busy µs by backend
	calls, rows float64              // total source accesses and tuples delivered
	branches    float64              // total mediation branches
	selfSumPct  []float64            // per request: Σ self / round trip, %
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// analyze computes each request's layer self times. A span's children
// are the spans naming it as parent; a request is counted only when its
// client span (the root, whose id is the request id) was recorded.
func analyze(spans []span) *layerStats {
	ls := &layerStats{spans: len(spans)}
	byReq := map[uint64][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	for req, ss := range byReq {
		var root *span
		children := map[uint64][]interval{}
		for i := range ss {
			s := &ss[i]
			if s.Layer == lClient && s.ID == req {
				root = s
			}
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
		if root == nil {
			continue
		}
		ls.reqs++
		var self [numLayers]int64
		var sum int64
		for _, s := range ss {
			st := selfTime(interval{s.Start, s.End}, children[s.ID])
			self[s.Layer] += st
			sum += st
			switch s.Layer {
			case lWrapper:
				ls.busy[s.Backend] += us(s.End - s.Start)
				ls.rows += float64(s.Rows)
				if s.Access {
					ls.calls++
				}
			case lServer:
				ls.bytes += s.Bytes
			case lMediate:
				ls.branches += float64(s.Rows)
			}
		}
		for l := range self {
			ls.self[l] = append(ls.self[l], us(self[l]))
		}
		if rt := root.End - root.Start; rt > 0 {
			ls.selfSumPct = append(ls.selfSumPct, 100*float64(sum)/float64(rt))
		}
	}
	return ls
}

// report sets the span-derived per-layer metrics: self times as
// per-query medians, busy times and counts as per-query means.
func (ls *layerStats) report(res *result, maxInflight int64) {
	q := float64(max(ls.reqs, 1))
	serverSelf := make([]float64, len(ls.self[lServer]))
	for i := range serverSelf {
		serverSelf[i] = ls.self[lServer][i] + ls.self[lService][i]
	}
	res.set("sqlparse.parse_us", median(ls.self[lParse]), "us")
	res.set("core.mediate_us", median(ls.self[lMediate]), "us")
	res.set("core.branches", ls.branches/q, "count")
	res.set("planner.plan_us", median(ls.self[lPlan]), "us")
	res.set("planner.exec_self_us", median(ls.self[lExec]), "us")
	res.set("server.self_us", median(serverSelf), "us")
	res.set("client.self_us", median(ls.self[lClient]), "us")
	total := 0.0
	for b := bMem; b < numBackends; b++ {
		res.set("wrapper."+backendNames[b]+".busy_us", ls.busy[b]/q, "us")
		total += ls.busy[b]
	}
	res.set("wrapper.busy_us", total/q, "us")
	res.set("wrapper.calls", ls.calls/q, "count")
	res.set("wrapper.rows", ls.rows/q, "count")
	res.set("wrapper.max_inflight", float64(maxInflight), "count")
	res.set("harness.self_sum_pct", median(ls.selfSumPct), "%")
}
