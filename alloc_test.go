// Alloc-regression gates for the mediated execution path and the NDJSON
// wire: they pin the allocation budget of the paper-shaped E9 query so a
// later change to the batch pipeline cannot silently fall back to
// per-tuple allocation, and the per-row cost of each end of the stream.
// The budgets carry ~2x headroom over the measured value — they gate
// order-of-magnitude regressions, not single-alloc drift (the pre-batch
// engine spent ~40 allocations per source row on the same query).
package repro_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/planner"
)

func TestE9MediatedJoinAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	cat, w := scaledCatalog(1000, 42)
	want := w.Expected.Len()
	run := func() {
		res, err := runMediation(planner.NewExecutor(cat), med)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != want {
			t.Fatalf("answers = %d, want %d", res.Len(), want)
		}
	}
	run() // warm caches outside the measured runs
	allocs := testing.AllocsPerRun(5, run)
	t.Logf("E9 mediated join (companies=1000): %.0f allocs/query", allocs)
	const budget = 2700 // measured ~1330; ~2x headroom
	if allocs > budget {
		t.Errorf("mediated E9 query allocates %.0f/query, budget %d", allocs, budget)
	}
}

// perRowAllocs is the marginal allocations per row of run: the count for
// 2n rows minus the count for n, over n, so per-query costs cancel.
func perRowAllocs(n int, run func(rows int)) float64 {
	run(n)
	run(2 * n) // warm buffers and caches outside the measured runs
	a1 := testing.AllocsPerRun(5, func() { run(n) })
	a2 := testing.AllocsPerRun(5, func() { run(2 * n) })
	return (a2 - a1) / float64(n)
}

// discardWriter is an http.ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Flush()                      {}

// TestWireAllocBudget pins both ends of /api/query/stream on the scaled
// Q1 rows (cname, revenue). The server encodes each row into one reused
// line buffer, so a row costs nothing (the memory scan under it neither);
// the reflective encoder spent ~4. The client's decode of a row costs the
// string, its interface box and the number's box (measured 3.0); the
// values slice is cut from a shared chunk. json.Decoder spent ~8.
func TestWireAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const n = wireRows / 2
	systems := map[int]http.Handler{n: wireSystem(n).Handler(), 2 * n: wireSystem(2 * n).Handler()}
	body := []byte(`{"sql":"` + wireSQL + `","naive":true}`)
	server := perRowAllocs(n, func(rows int) {
		req := httptest.NewRequest(http.MethodPost, "/api/query/stream", bytes.NewReader(body))
		systems[rows].ServeHTTP(&discardWriter{h: http.Header{}}, req)
	})
	conns := map[int]*client.Conn{}
	for rows, h := range systems {
		ts := httptest.NewServer(h)
		defer ts.Close()
		conn, err := client.Open(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		conns[rows] = conn
	}
	both := perRowAllocs(n, func(rows int) {
		if got := streamRows(t, conns[rows]); got != rows {
			t.Fatalf("streamed %d rows, want %d", got, rows)
		}
	})
	t.Logf("wire allocs per row: server %.2f, server+client %.2f", server, both)
	if server > 0.05 {
		t.Errorf("server stream path allocates %.2f/row, budget 0", server)
	}
	const budget = 4 // measured 3.0; the client's per-row floor under encoding/json's value types is 3
	if client := both - server; client > budget {
		t.Errorf("client row decode allocates %.2f/row, budget %d", client, budget)
	}
}
