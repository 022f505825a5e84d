package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/coin"
	"repro/internal/client"
)

// TestArchitectureEndToEnd is experiment E3: the full Figure 1 stack —
// client API over the HTTP-tunneled protocol, server, mediation engine,
// multi-database engine, wrappers, relational and Web sources — answering
// the paper's query.
func TestArchitectureEndToEnd(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()

	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Schema handshake (dictionary service).
	if got := conn.Relations(); len(got) != 3 {
		t.Errorf("relations = %v", got)
	}
	if cols, ok := conn.Columns("r1"); !ok || len(cols) != 3 {
		t.Errorf("r1 columns = %v, %v", cols, ok)
	}
	found := false
	for _, c := range conn.Contexts() {
		if c == "c2" {
			found = true
		}
	}
	if !found {
		t.Errorf("contexts = %v", conn.Contexts())
	}

	// Naive baseline: empty answer.
	naive, err := conn.QueryNaiveCtx(context.Background(), coin.PaperQ1, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Rows) != 0 {
		t.Errorf("naive rows = %v", naive.Rows)
	}

	// Mediated: the paper's correct answer.
	res, err := conn.QueryCtx(context.Background(), coin.PaperQ1, "c2", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != "NTT" || res.Rows[0][1] != 9600000.0 {
		t.Errorf("answer = %v", res.Rows[0])
	}
	if res.Branches != 3 || !strings.Contains(res.MediatedSQL, "UNION") {
		t.Errorf("mediation metadata: branches=%d sql=\n%s", res.Branches, res.MediatedSQL)
	}

	// Mediate-only endpoint.
	sql, branches, err := conn.Mediate(context.Background(), coin.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	if branches != 3 || !strings.Contains(sql, "'JPY'") {
		t.Errorf("mediate-only: branches=%d\n%s", branches, sql)
	}
}

func TestServerErrors(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.QueryCtx(context.Background(), "SELECT nope FROM nosuch", "c2", client.Options{}); err == nil {
		t.Error("bad query succeeded")
	}
	if _, err := conn.QueryCtx(context.Background(), coin.PaperQ1, "nocontext", client.Options{}); err == nil {
		t.Error("unknown context succeeded")
	}
	if _, _, err := conn.Mediate(context.Background(), "", "c2"); err == nil {
		t.Error("empty SQL accepted")
	}
	if _, err := client.Open("http://127.0.0.1:1"); err == nil {
		t.Error("dead server accepted")
	}
}

func TestQBEPages(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()

	get := func(path string) string {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}

	form := get("/qbe")
	if !strings.Contains(form, "Query-By-Example") || !strings.Contains(form, "r1") {
		t.Errorf("QBE form:\n%s", form)
	}

	run := get("/qbe/run?context=c2&sql=" + strings.ReplaceAll(
		"SELECT rl.cname, rl.revenue FROM r1 rl, r2 WHERE rl.cname = r2.cname AND rl.revenue > r2.expenses",
		" ", "+"))
	if !strings.Contains(run, "NTT") || !strings.Contains(run, "Mediated query") {
		t.Errorf("QBE run:\n%s", run)
	}

	naive := get("/qbe/run?naive=1&sql=SELECT+r2.cname+FROM+r2")
	if !strings.Contains(naive, "IBM") {
		t.Errorf("QBE naive run:\n%s", naive)
	}
	bad := get("/qbe/run?context=c2&sql=SELECT+zzz+FROM+nosuch")
	if !strings.Contains(bad, "unknown relation") {
		t.Errorf("QBE error page:\n%s", bad)
	}
}

// TestConcurrencyKnobOverWire: the per-source concurrency cap travels
// from client.Options through the wire into the query session — a capped
// query still returns the paper's answer, and a negative cap is rejected
// before any session starts.
func TestConcurrencyKnobOverWire(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := conn.QueryCtx(context.Background(), coin.PaperQ1, "c2", client.Options{MaxConcurrentPerSource: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "NTT" {
		t.Errorf("capped query rows = %v", res.Rows)
	}

	resp, err := http.Post(ts.URL+"/api/query", "application/json",
		strings.NewReader(`{"sql":"SELECT r1.cname FROM r1","max_concurrent_per_source":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative max_concurrent_per_source: status = %d, want 400", resp.StatusCode)
	}
}

// TestExplainAnalyzeOverWire: /api/explain with analyze=true executes the
// branches and returns plans carrying measured columns; governor fields
// still validate.
func TestExplainAnalyzeOverWire(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()

	body := `{"sql": ` + strconv.Quote(coin.PaperQ1) + `, "context": "c2", "analyze": true}`
	resp, err := http.Post(ts.URL+"/api/explain", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	var er struct {
		Plan string `json:"plan"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"act_rows=", "act_queries=", "est_cost="} {
		if !strings.Contains(er.Plan, want) {
			t.Errorf("analyzed plan missing %q:\n%s", want, er.Plan)
		}
	}

	// Bad governor fields reject before executing anything.
	bad := `{"sql": "SELECT r1.cname FROM r1", "context": "c2", "analyze": true, "timeout": "yes"}`
	resp2, err := http.Post(ts.URL+"/api/explain", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout status = %s, want 400", resp2.Status)
	}
}

// TestExplainValidatesGovernorsOnBothPaths: /api/explain rejects a bad
// governor field with 400 whether or not analyze is set, and accepts the
// same request with valid fields on both paths.
func TestExplainValidatesGovernorsOnBothPaths(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		fields string
		want   int
	}{
		{"valid", `"timeout": "5s", "max_rows": 1, "parallelism": 1`, http.StatusOK},
		{"bad timeout", `"timeout": "yes"`, http.StatusBadRequest},
		{"negative timeout", `"timeout": "-1s"`, http.StatusBadRequest},
		{"negative max_rows", `"max_rows": -1`, http.StatusBadRequest},
		{"negative max_concurrent_per_source", `"max_concurrent_per_source": -1`, http.StatusBadRequest},
		{"negative retry_budget", `"retry_budget": -1`, http.StatusBadRequest},
		{"negative parallelism", `"parallelism": -1`, http.StatusBadRequest},
	}
	for _, c := range cases {
		for _, analyze := range []bool{false, true} {
			t.Run(c.name+"/analyze="+strconv.FormatBool(analyze), func(t *testing.T) {
				body := `{"sql": ` + strconv.Quote(coin.PaperQ1) + `, "context": "c2", "analyze": ` +
					strconv.FormatBool(analyze) + `, ` + c.fields + `}`
				resp, err := http.Post(ts.URL+"/api/explain", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != c.want {
					t.Errorf("status = %s, want %d", resp.Status, c.want)
				}
			})
		}
	}
}
