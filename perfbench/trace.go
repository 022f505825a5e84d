package main

// The traced run. Spans are recorded around the calls into each layer,
// from the benchmark's own code only: an http.Handler wrapper (the wire,
// server side), a server.Service wrapper that splits each query into the
// calls coin makes (sqlparse.Parse, Mediator.Mediate, planning,
// execution), and a timing shim around every source wrapper. The client
// side records the round trip. Spans stay in memory until the run ends.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/coin"
	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/wrapper"
	"repro/internal/wrapper/filesrc"
	"repro/internal/wrapper/restsrc"
	"repro/internal/wrapper/sqlsrc"
)

// layer names the module a span's time belongs to.
type layer uint8

const (
	lClient  layer = iota // client round trip (internal/client)
	lServer               // HTTP handler (internal/server)
	lService              // service call glue
	lParse                // sqlparse.Parse
	lMediate              // core.Mediator.Mediate
	lPlan                 // planner PlanCtx + ParallelizePlan
	lExec                 // planner + relalg execution
	lWrapper              // source access
	numLayers
)

var layerNames = [numLayers]string{"client", "server", "service", "parse", "mediate", "plan", "exec", "wrapper"}

// backend is a wrapper span's source kind.
type backend uint8

const (
	bNone backend = iota
	bMem
	bFile
	bSQL
	bREST
	bWeb
	numBackends
)

var backendNames = [numBackends]string{"", "mem", "file", "sql", "rest", "web"}

func backendOf(w wrapper.Wrapper) backend {
	switch w.(type) {
	case *wrapper.Relational:
		return bMem
	case *filesrc.Source:
		return bFile
	case *sqlsrc.Source:
		return bSQL
	case *restsrc.Source:
		return bREST
	case *wrapper.Web:
		return bWeb
	}
	return bNone
}

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID, Parent, Req uint64
	Layer           layer
	Backend         backend
	Access          bool // wrapper spans: a source access (Query, QueryStream, stat probe), not a stream read
	Start, End      int64
	Rows            int64 // wrapper spans: tuples delivered; mediate spans: branches
	Bytes           int64 // server spans: response bytes written
}

// tracer collects spans.
type tracer struct {
	epoch    time.Time
	ids      atomic.Uint64
	inflight atomic.Int64
	maxInfl  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (the warm-up's).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	t.maxInfl.Store(0)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// reqState travels in a request's context: its id, its handler span, and
// the innermost engine span open on it, which parents wrapper calls.
type reqState struct {
	req     uint64
	handler uint64
	cur     atomic.Uint64
}

type reqKey struct{}

func stateOf(ctx context.Context) *reqState {
	st, _ := ctx.Value(reqKey{}).(*reqState)
	return st
}

// begin opens a span of layer l under parent for the request in st; end
// records it. The span becomes the parent of wrapper calls until it ends.
type open struct {
	t    *tracer
	st   *reqState
	s    span
	prev uint64
}

func (t *tracer) begin(st *reqState, l layer, parent uint64) *open {
	o := &open{t: t, st: st, s: span{ID: t.ids.Add(1), Parent: parent, Req: st.req, Layer: l}}
	if l >= lParse {
		o.prev = st.cur.Swap(o.s.ID)
	}
	o.s.Start = t.now()
	return o
}

func (o *open) end() {
	o.s.End = o.t.now()
	if o.s.Layer >= lParse {
		o.st.cur.Store(o.prev)
	}
	o.t.add(o.s)
}

// --- client side ----------------------------------------------------------

// reqHeader carries the client's request id to the handler wrapper.
const reqHeader = "X-Perfbench-Request"

type clientReqKey struct{}

// idTransport stamps each outgoing request with the id the load
// generator put in its context, so server-side spans join the client
// span of the same request.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(clientReqKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(r)
}

// --- server side -----------------------------------------------------------

// tracedHandler wraps the server's handler: it takes the request id from
// the client's header (minting one when absent), puts it in the request
// context and records the handler span with the bytes it wrote.
func (t *tracer) tracedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			id = t.ids.Add(1)
		}
		st := &reqState{req: id}
		o := t.begin(st, lServer, id)
		st.handler = o.s.ID
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), reqKey{}, st)))
		o.s.Bytes = cw.n
		o.end()
	})
}

// countingWriter counts response bytes. It implements http.Flusher, as
// the wrapped writer does, so the streaming handler flushes as it would
// untraced.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tracedService is a server.Service over a coin.System that splits each
// query into the calls coin.System makes, each in its own span. Methods
// the workloads do not call pass straight through (embedded System).
type tracedService struct {
	*coin.System
	t *tracer
	// pending holds the parse and mediation timings of a Mediate call
	// until the ExecuteWarnCtx that runs its result: the server mediates
	// without the request context, so the spans join their request there.
	pending *sync.Map // *core.Mediation -> mediated
}

var _ server.Service = tracedService{}

// mediated is one Mediate call's timing: parse from t0 to t1, mediation
// from t1 to t2, giving branches branches.
type mediated struct {
	t0, t1, t2 int64
	branches   int
}

// service opens the service-call span of the request in ctx.
func (s tracedService) service(ctx context.Context) (*reqState, *open) {
	st := stateOf(ctx)
	if st == nil {
		return nil, nil
	}
	return st, s.t.begin(st, lService, st.handler)
}

// timed runs f in a span of layer l under parent (untimed without a
// traced request).
func (s tracedService) timed(st *reqState, l layer, parent *open, f func()) {
	if st == nil {
		f()
		return
	}
	o := s.t.begin(st, l, parent.s.ID)
	f()
	o.end()
}

func endOpen(o *open) {
	if o != nil {
		o.end()
	}
}

// Mediate implements server.Service: Mediator.MediateSQL split into
// sqlparse.Parse and Mediator.Mediate.
func (s tracedService) Mediate(sql, receiver string) (*core.Mediation, error) {
	var m mediated
	m.t0 = s.t.now()
	stmt, err := sqlparse.Parse(sql)
	m.t1 = s.t.now()
	if err != nil {
		return nil, err
	}
	med, err := s.Mediator().Mediate(stmt, receiver)
	m.t2 = s.t.now()
	if err != nil {
		return nil, err
	}
	m.branches = len(med.Branches)
	s.pending.Store(med, m)
	return med, nil
}

// ExecuteWarnCtx implements server.Service. The service span of a
// mediated query starts where its Mediate call started.
func (s tracedService) ExecuteWarnCtx(ctx context.Context, med *core.Mediation, opts planner.Limits) (*relalg.Relation, []planner.Warning, error) {
	st, svc := s.service(ctx)
	defer endOpen(svc)
	if v, ok := s.pending.LoadAndDelete(med); ok && svc != nil {
		m := v.(mediated)
		svc.s.Start = m.t0
		s.t.add(span{ID: s.t.ids.Add(1), Parent: svc.s.ID, Req: st.req, Layer: lParse, Start: m.t0, End: m.t1})
		s.t.add(span{ID: s.t.ids.Add(1), Parent: svc.s.ID, Req: st.req, Layer: lMediate, Start: m.t1, End: m.t2, Rows: int64(m.branches)})
	}
	if err := s.plan(ctx, st, svc, med.Branches, opts); err != nil {
		return nil, nil, err
	}
	var (
		rel   *relalg.Relation
		warns []planner.Warning
		err   error
	)
	s.timed(st, lExec, svc, func() { rel, warns, err = s.System.ExecuteWarnCtx(ctx, med, opts) })
	return rel, warns, err
}

// plan times planning separately from execution: PlanCtx and
// ParallelizePlan for every branch, under the session the query would
// get. Execution plans again; this copy is what planner.plan_us reports.
func (s tracedService) plan(ctx context.Context, st *reqState, svc *open, sels []*sqlparse.Select, opts planner.Limits) error {
	var err error
	s.timed(st, lPlan, svc, func() {
		ex := s.Executor()
		sess := ex.NewSession(ctx, opts)
		defer sess.Close()
		for _, sel := range sels {
			var p *planner.BranchPlan
			if p, err = ex.PlanCtx(sess.Context(), sel); err != nil {
				return
			}
			ex.ParallelizePlan(p, sess)
		}
	})
	return err
}

// QueryNaiveCtx implements server.Service: coin.System.QueryNaiveCtx
// split into parse, planning and execution.
func (s tracedService) QueryNaiveCtx(ctx context.Context, sql string, opts planner.Limits) (*relalg.Relation, error) {
	st, svc := s.service(ctx)
	defer endOpen(svc)
	var (
		stmt sqlparse.Statement
		rel  *relalg.Relation
		err  error
	)
	s.timed(st, lParse, svc, func() { stmt, err = sqlparse.Parse(sql) })
	if err != nil {
		return nil, err
	}
	if err := s.plan(ctx, st, svc, sqlparse.Selects(stmt), opts); err != nil {
		return nil, err
	}
	s.timed(st, lExec, svc, func() {
		ex := s.Executor()
		sess := ex.NewSession(ctx, opts)
		defer sess.Close()
		var it relalg.Iterator
		if it, err = ex.StatementStream(sess, stmt); err != nil {
			return
		}
		rel, err = relalg.Collect(sess.Context(), it, "")
	})
	return rel, err
}

// QueryStream implements server.Service: mediation (or parse alone, for
// naive) and planning in spans, then the stream opened in an execution
// span; each later read of the stream is an execution span of its own.
func (s tracedService) QueryStream(ctx context.Context, sql, receiver string, naive bool, opts planner.Limits) (server.RowStream, error) {
	st, svc := s.service(ctx)
	defer endOpen(svc)
	var (
		med  *core.Mediation
		stmt sqlparse.Statement
		err  error
	)
	s.timed(st, lParse, svc, func() { stmt, err = sqlparse.Parse(sql) })
	if err == nil && !naive {
		var o *open
		if st != nil {
			o = s.t.begin(st, lMediate, svc.s.ID)
		}
		med, err = s.Mediator().Mediate(stmt, receiver)
		if o != nil {
			if med != nil {
				o.s.Rows = int64(len(med.Branches))
			}
			o.end()
		}
	}
	if err != nil {
		return nil, err
	}
	sels := sqlparse.Selects(stmt)
	if med != nil {
		sels = med.Branches
	}
	if err := s.plan(ctx, st, svc, sels, opts); err != nil {
		return nil, err
	}
	rs := &tracedRows{t: s.t, st: st, med: med}
	s.timed(st, lExec, svc, func() {
		ex := s.Executor()
		rs.sess = ex.NewSession(ctx, opts)
		if med != nil {
			rs.it, err = ex.MediationStream(rs.sess, med)
		} else {
			rs.it, err = ex.StatementStream(rs.sess, stmt)
		}
		if err == nil {
			err = rs.it.Open(rs.sess.Context())
		}
	})
	if err != nil {
		rs.sess.Close()
		return nil, err
	}
	rs.schema = rs.it.Schema()
	return rs, nil
}

// tracedRows is coin.RowStream's batch path with every read timed as an
// execution span under the handler span.
type tracedRows struct {
	t      *tracer
	st     *reqState
	sess   *planner.Session
	it     relalg.Iterator
	med    *core.Mediation
	schema relalg.Schema
	closed bool
}

func (r *tracedRows) read(f func()) {
	if r.st == nil {
		f()
		return
	}
	o := r.t.begin(r.st, lExec, r.st.handler)
	f()
	o.end()
}

func (r *tracedRows) Schema() relalg.Schema       { return r.schema }
func (r *tracedRows) Mediation() *core.Mediation  { return r.med }
func (r *tracedRows) Warnings() []planner.Warning { return r.sess.Warnings() }
func (r *tracedRows) Next() (relalg.Tuple, bool, error) {
	rows, err := r.NextBatch(1)
	if err != nil || len(rows) == 0 {
		return nil, false, err
	}
	return rows[0], true, nil
}

func (r *tracedRows) NextBatch(max int) ([]relalg.Tuple, error) {
	if r.closed {
		return nil, nil
	}
	var (
		b   relalg.Batch
		err error
	)
	r.read(func() { b, err = r.it.Next(max) })
	return b.Rows, err
}

func (r *tracedRows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var err error
	r.read(func() { err = r.it.Close() })
	r.sess.Close()
	return err
}

// --- source side -----------------------------------------------------------

// shim times every call into a source wrapper. It embeds the Wrapper
// interface, so it exposes no optional interface by itself; newShim picks
// the variant with exactly the optional interfaces of the wrapped source,
// or the engine would plan differently under tracing.
type shim struct {
	wrapper.Wrapper
	t    *tracer
	kind backend
}

// call times f as a wrapper span of the request in ctx.
func (s *shim) call(ctx context.Context, access bool, f func() int64) {
	st := stateOf(ctx)
	if st == nil {
		f()
		return
	}
	sp := span{ID: s.t.ids.Add(1), Parent: st.cur.Load(), Req: st.req, Layer: lWrapper, Backend: s.kind, Access: access}
	n := s.t.inflight.Add(1)
	for m := s.t.maxInfl.Load(); n > m && !s.t.maxInfl.CompareAndSwap(m, n); m = s.t.maxInfl.Load() {
	}
	sp.Start = s.t.now()
	sp.Rows = f()
	sp.End = s.t.now()
	s.t.inflight.Add(-1)
	s.t.add(sp)
}

func (s *shim) Query(ctx context.Context, q wrapper.SourceQuery) (*relalg.Relation, error) {
	var (
		rel *relalg.Relation
		err error
	)
	s.call(ctx, true, func() int64 {
		if rel, err = s.Wrapper.Query(ctx, q); err != nil {
			return 0
		}
		return int64(rel.Len())
	})
	return rel, err
}

func (s *shim) EstimateRows(ctx context.Context, relation string) int {
	var n int
	s.call(ctx, true, func() int64 { n = s.Wrapper.EstimateRows(ctx, relation); return 0 })
	return n
}

func (s *shim) queryStream(ctx context.Context, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	var (
		ts  wrapper.TupleStream
		err error
	)
	s.call(ctx, true, func() int64 { ts, err = s.Wrapper.(wrapper.Streamer).QueryStream(ctx, q); return 0 })
	if err != nil {
		return nil, err
	}
	base := &shimStream{s: s, ctx: ctx, TupleStream: ts}
	if b, ok := ts.(wrapper.BatchStream); ok {
		return &shimBatchStream{shimStream: base, b: b}, nil
	}
	return base, nil
}

func (s *shim) distinctCount(ctx context.Context, relation, column string) (int, bool) {
	var (
		n  int
		ok bool
	)
	s.call(ctx, true, func() int64 {
		n, ok = s.Wrapper.(wrapper.Statser).DistinctCount(ctx, relation, column)
		return 0
	})
	return n, ok
}

type streamShim struct{ *shim }

func (s streamShim) QueryStream(ctx context.Context, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	return s.queryStream(ctx, q)
}

type statsShim struct{ *shim }

func (s statsShim) DistinctCount(ctx context.Context, relation, column string) (int, bool) {
	return s.distinctCount(ctx, relation, column)
}

type streamStatsShim struct{ *shim }

func (s streamStatsShim) QueryStream(ctx context.Context, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	return s.queryStream(ctx, q)
}

func (s streamStatsShim) DistinctCount(ctx context.Context, relation, column string) (int, bool) {
	return s.distinctCount(ctx, relation, column)
}

// newShim wraps w in the shim variant matching its optional interfaces.
func (t *tracer) newShim(w wrapper.Wrapper) wrapper.Wrapper {
	s := &shim{Wrapper: w, t: t, kind: backendOf(w)}
	_, streams := w.(wrapper.Streamer)
	_, stats := w.(wrapper.Statser)
	switch {
	case streams && stats:
		return streamStatsShim{s}
	case streams:
		return streamShim{s}
	case stats:
		return statsShim{s}
	}
	return s
}

// shimStream times each read of a source stream; shimBatchStream adds
// NextBatch when the wrapped stream has it.
type shimStream struct {
	wrapper.TupleStream
	s   *shim
	ctx context.Context
}

func (p *shimStream) Next() (relalg.Tuple, bool, error) {
	var (
		t   relalg.Tuple
		ok  bool
		err error
	)
	p.s.call(p.ctx, false, func() int64 {
		if t, ok, err = p.TupleStream.Next(); ok {
			return 1
		}
		return 0
	})
	return t, ok, err
}

func (p *shimStream) Close() error {
	var err error
	p.s.call(p.ctx, false, func() int64 { err = p.TupleStream.Close(); return 0 })
	return err
}

type shimBatchStream struct {
	*shimStream
	b wrapper.BatchStream
}

func (p *shimBatchStream) NextBatch(max int) ([]relalg.Tuple, error) {
	var (
		rows []relalg.Tuple
		err  error
	)
	p.s.call(p.ctx, false, func() int64 { rows, err = p.b.NextBatch(max); return int64(len(rows)) })
	return rows, err
}

// --- output ----------------------------------------------------------------

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		rec := map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req, "name": layerNames[s.Layer],
			"start_ns": s.Start, "end_ns": s.End}
		if s.Layer == lWrapper {
			rec["backend"] = backendNames[s.Backend]
			rec["rows"] = s.Rows
			rec["access"] = s.Access
		}
		if s.Layer == lServer {
			rec["bytes"] = s.Bytes
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
