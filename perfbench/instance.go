package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/coin"
	"repro/internal/client"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/sqlparse"
)

// cmd/coinserver's HTTP server timeouts.
const (
	coinserverReadHeaderTimeout = 5 * time.Second
	coinserverReadTimeout       = 30 * time.Second
	coinserverIdleTimeout       = 2 * time.Minute
)

// requestTimeout bounds one request, so a hung server fails the run
// instead of stalling it.
const requestTimeout = 10 * time.Second

// warmupMax caps the warm-up requests (each distinct query once).
const warmupMax = 200

// instance is a running system under test with a connected client.
type instance struct {
	sys   *coin.System
	conn  *client.Conn
	close func()
}

// startInstance serves sys through handler on a loopback listener,
// connects a client and warms up: every distinct query once, in order,
// up to warmupMax, each answer checked.
func startInstance(sys *coin.System, handler http.Handler, release func(), qs []query, t *tracer) (*instance, error) {
	ts, stop := serverFor(handler)
	inst := &instance{sys: sys, close: func() { stop(); release() }}
	conn, err := client.Open(ts.URL)
	if err != nil {
		inst.close()
		return nil, err
	}
	inst.conn = conn
	send := sender(conn, qs, t)
	for i := 0; i < len(qs) && i < warmupMax; i++ {
		if o := send(context.Background(), i); o.err != nil {
			inst.close()
			return nil, fmt.Errorf("warm-up query %q: %w", qs[i].SQL, o.err)
		}
	}
	return inst, nil
}

// sender returns the generator's send function over conn: one request
// through internal/client, its answer checked against the query's
// oracle after the clock stops. With a tracer it also records the client
// span and tags the request with its id.
func sender(conn *client.Conn, qs []query, t *tracer) sendFunc {
	return func(ctx context.Context, i int) outcome {
		q := qs[i]
		var id uint64
		var start int64
		if t != nil {
			id = t.ids.Add(1)
			ctx = context.WithValue(ctx, clientReqKey{}, id)
			start = t.now()
		}
		ctx, cancel := context.WithTimeout(ctx, requestTimeout)
		defer cancel()
		opts := client.Options{Parallelism: q.Parallelism}
		var (
			cols  []server.ColumnInfo
			rows  [][]any
			first time.Time
			err   error
		)
		if q.Stream {
			var cur *client.RowCursor
			if cur, err = conn.QueryStream(ctx, q.SQL, q.Context, q.Naive, opts); err == nil {
				for cur.Next() {
					if rows == nil {
						first = time.Now()
					}
					rows = append(rows, cur.Row())
				}
				err = cur.Err()
				cols = cur.Columns()
				cur.Close()
			}
		} else {
			var res *client.Result
			if q.Naive {
				res, err = conn.QueryNaiveCtx(ctx, q.SQL, opts)
			} else {
				res, err = conn.QueryCtx(ctx, q.SQL, q.Context, opts)
			}
			if err == nil {
				cols, rows = res.Columns, res.Rows
			}
		}
		o := outcome{done: time.Now(), rows: len(rows)}
		if t != nil {
			t.add(span{ID: id, Req: id, Layer: lClient, Start: start, End: t.now(), Rows: int64(len(rows))})
		}
		o.firstRow = first
		if first.IsZero() {
			o.firstRow = o.done // a buffered answer arrives all at once
		}
		if err == nil {
			err = q.check(cols, rows)
		}
		o.err = err
		return o
	}
}

// explain renders the plan the system would run for q: System.Explain
// for a mediated query, and for a naive one each SELECT planned and
// annotated under the request's parallelism.
func explain(sys *coin.System, q query) (string, error) {
	if !q.Naive {
		return sys.Explain(q.SQL, q.Context)
	}
	stmt, err := sqlparse.Parse(q.SQL)
	if err != nil {
		return "", err
	}
	ex := sys.Executor()
	sess := ex.NewSession(context.Background(), planner.Limits{MaxParallelism: q.Parallelism})
	defer sess.Close()
	var b strings.Builder
	for i, sel := range sqlparse.Selects(stmt) {
		p, err := ex.PlanCtx(sess.Context(), sel)
		if err != nil {
			return "", err
		}
		ex.ParallelizePlan(p, sess)
		fmt.Fprintf(&b, "branch %d:\n%s", i+1, p.Explain())
	}
	return b.String(), nil
}

// serverFor starts an HTTP server for h on a loopback listener, with
// cmd/coinserver's timeouts; the returned function stops it.
func serverFor(h http.Handler) (*httptest.Server, func()) {
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ReadHeaderTimeout = coinserverReadHeaderTimeout
	ts.Config.ReadTimeout = coinserverReadTimeout
	ts.Config.IdleTimeout = coinserverIdleTimeout
	ts.Start()
	return ts, ts.Close
}
