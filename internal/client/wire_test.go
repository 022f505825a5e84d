package client_test

// Tests of the NDJSON wire contract as the client sees it: rows that
// round-trip through the row codec unchanged, answers JSON cannot carry,
// and streams cut off before their trailer.

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/coin"
	"repro/internal/client"
	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
)

// valuesConn serves one relational table vals(s string, n number)
// holding rows, for naive queries.
func valuesConn(t *testing.T, rows ...relalg.Tuple) *client.Conn {
	t.Helper()
	sys := coin.New(coin.NewModel())
	db := store.NewDB("valsrc")
	tab := db.MustCreateTable("vals", relalg.NewSchema(
		relalg.Column{Name: "s", Type: relalg.KindString},
		relalg.Column{Name: "n", Type: relalg.KindNumber},
	))
	for _, row := range rows {
		tab.MustInsert(row...)
	}
	sys.Catalog.MustAddSource(wrapper.NewRelational(db))
	ts := httptest.NewServer(sys.Handler())
	t.Cleanup(ts.Close)
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

const valsSQL = "SELECT vals.s, vals.n FROM vals"

// serial keeps the scan in table order, so row numbers are predictable.
var serial = client.Options{Parallelism: 1}

// streamAll drains a naive stream of sql.
func streamAll(t *testing.T, conn *client.Conn, sql string) ([][]interface{}, *client.RowCursor) {
	t.Helper()
	cur, err := conn.QueryStream(context.Background(), sql, "", true, serial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cur.Close() })
	var rows [][]interface{}
	for cur.Next() {
		rows = append(rows, cur.Row())
	}
	return rows, cur
}

// TestStreamMatchesBufferedAnswer sends values that exercise the codecs'
// edges — escapes, invalid UTF-8, a line longer than the cursor's read
// buffer, float formats — through /api/query/stream and /api/query: the
// streamed rows must equal the buffered answer, which encoding/json
// decodes on the client.
func TestStreamMatchesBufferedAnswer(t *testing.T) {
	strs := []string{"CO0001", "AT&T <x>", "q\"b\\\n\t\x01", "caf\u00e9 \u2028", "bad\xff", "", strings.Repeat("long ", 3000)}
	nums := []float64{9600000, 0.1, math.Copysign(0, -1), 1e21, 1e-7, 123456789.125, math.MaxFloat64}
	var rows []relalg.Tuple
	for i := 0; i < 3*len(strs); i++ {
		rows = append(rows, relalg.Tuple{relalg.StrV(strs[i%len(strs)]), relalg.NumV(nums[i%len(nums)])})
	}
	conn := valuesConn(t, rows...)
	streamed, cur := streamAll(t, conn, valsSQL)
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	res, err := conn.QueryNaiveCtx(context.Background(), valsSQL, serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(rows) || !reflect.DeepEqual(streamed, res.Rows) {
		t.Fatalf("streamed rows differ from the buffered answer:\n%v\n%v", streamed, res.Rows)
	}
}

// TestNonFiniteNumberFailsBothEndpoints: a NaN or ±Inf in an answer is
// an error naming its row and column on both wire paths, never a
// silently short answer. The stream delivers the rows before it.
func TestNonFiniteNumberFailsBothEndpoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    float64
	}{{"NaN", math.NaN()}, {"+Inf", math.Inf(1)}, {"-Inf", math.Inf(-1)}} {
		t.Run(tc.name, func(t *testing.T) {
			conn := valuesConn(t,
				relalg.Tuple{relalg.StrV("IBM"), relalg.NumV(1)},
				relalg.Tuple{relalg.StrV("NTT"), relalg.NumV(2)},
				relalg.Tuple{relalg.StrV("bad"), relalg.NumV(tc.f)},
				relalg.Tuple{relalg.StrV("after"), relalg.NumV(3)},
			)
			want := `row 3, column "n": ` + tc.name + ` has no JSON encoding`

			_, err := conn.QueryNaiveCtx(context.Background(), valsSQL, serial)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("/api/query: err = %v, want %q", err, want)
			}

			rows, cur := streamAll(t, conn, valsSQL)
			if err := cur.Err(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("/api/query/stream: err = %v, want %q", err, want)
			}
			if len(rows) != 2 || cur.Rows() != 2 {
				t.Errorf("/api/query/stream delivered %d rows (Rows() = %d), want the 2 before the bad one", len(rows), cur.Rows())
			}
		})
	}
}

// TestTruncatedStreamIsUnexpectedEOF cuts a stream before its trailer,
// between lines and inside one: the cursor's error wraps
// io.ErrUnexpectedEOF and says how many rows arrived.
func TestTruncatedStreamIsUnexpectedEOF(t *testing.T) {
	const (
		header = `{"type":"header","columns":[{"name":"s","type":"string"},{"name":"n","type":"number"}]}` + "\n"
		row    = `{"type":"row","values":["IBM",1]}` + "\n"
	)
	for _, tc := range []struct {
		name, body string
		rows       int // -1: the header itself is cut
	}{
		{"after header", header, 0},
		{"between rows", header + row + row, 2},
		{"inside a row", header + row + row[:len(row)/2], 1},
		{"before a row's newline", header + row + strings.TrimSuffix(row, "\n"), 1},
		{"inside the trailer", header + row + `{"type":"sta`, 1},
		{"inside the header", header[:20], -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/api/schema" {
					_, _ = io.WriteString(w, `{"relations":{},"contexts":[]}`)
					return
				}
				_, _ = io.WriteString(w, tc.body)
			}))
			defer ts.Close()
			conn, err := client.Open(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := conn.QueryStream(context.Background(), valsSQL, "", true, client.Options{})
			if tc.rows < 0 {
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("QueryStream err = %v, want io.ErrUnexpectedEOF", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			n := 0
			for cur.Next() {
				n++
			}
			err = cur.Err()
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("Err() = %v, want io.ErrUnexpectedEOF", err)
			}
			if n != tc.rows || !strings.Contains(err.Error(), "truncated after "+strconv.Itoa(tc.rows)+" rows") {
				t.Errorf("read %d rows, Err() = %v; want %d rows", n, err, tc.rows)
			}
		})
	}
}
