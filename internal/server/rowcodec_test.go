package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relalg"
)

// jsonRowRecord is the reference encoding appendRowRecord must equal:
// json.Encoder over the StreamRecord the handler used to build per row.
func jsonRowRecord(t testing.TB, tup relalg.Tuple) []byte {
	t.Helper()
	vals := make([]interface{}, len(tup))
	for i, v := range tup {
		vals[i] = valueJSON(v)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(StreamRecord{Type: "row", Values: vals}); err != nil {
		t.Fatalf("json.Encoder(%v): %v", tup, err)
	}
	return buf.Bytes()
}

func checkRowRecord(t testing.TB, tup relalg.Tuple) {
	t.Helper()
	got, ok := appendRowRecord([]byte("stale"), tup)
	if !ok {
		t.Fatalf("appendRowRecord(%v) refused a finite row", tup)
	}
	if want := jsonRowRecord(t, tup); !bytes.Equal(got[len("stale"):], want) {
		t.Fatalf("appendRowRecord(%v)\n got %q\nwant %q", tup, got[len("stale"):], want)
	}
}

// Strings and floats on the edges of encoding/json's escaping and
// float-format rules; the fuzz target starts from them too.
var (
	edgeStrings = []string{
		"", "CO0001", "AT&T", "<b>", "a>b", `quote"d`, `back\slash`, "/slash",
		"\b\f\n\r\t", "\x00\x01\x1f", "\x7f", "caf\u00e9", "\u65e5\u672c",
		"\u2028", "line\u2029sep", "\U0001F600", "\ufffd",
		"\xff", "bad\xc0\xafutf8", "\x80", "trunc\xe6\x97", "\xed\xa0\x80",
	}
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 9600000, 123456789.125, 1e20,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e-6, math.Nextafter(1e-6, 0),
		1e-7, -1.5e-7, 1e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64, 1 << 53,
	}
)

// TestAppendRowRecordMatchesEncoder is the randomized table test: the
// edge cases one by one, then random rows mixing every kind.
func TestAppendRowRecordMatchesEncoder(t *testing.T) {
	checkRowRecord(t, relalg.Tuple{})
	checkRowRecord(t, relalg.Tuple{relalg.Null, relalg.BoolV(true), relalg.BoolV(false)})
	for _, s := range edgeStrings {
		checkRowRecord(t, relalg.Tuple{relalg.StrV(s)})
	}
	for _, f := range edgeFloats {
		checkRowRecord(t, relalg.Tuple{relalg.NumV(f)})
	}
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		tup := make(relalg.Tuple, r.Intn(5))
		for i := range tup {
			tup[i] = randomValue(r)
		}
		checkRowRecord(t, tup)
	}
}

func randomValue(r *rand.Rand) relalg.Value {
	switch r.Intn(4) {
	case 0:
		return relalg.Null
	case 1:
		return relalg.BoolV(r.Intn(2) == 0)
	case 2:
		var b strings.Builder
		for n := r.Intn(12); n > 0; n-- {
			if r.Intn(3) == 0 {
				b.WriteString(edgeStrings[r.Intn(len(edgeStrings))])
			} else {
				b.WriteByte(byte(r.Intn(256)))
			}
		}
		return relalg.StrV(b.String())
	}
	var f float64
	switch r.Intn(3) {
	case 0:
		f = edgeFloats[r.Intn(len(edgeFloats))]
	case 1:
		f = float64(r.Intn(2_000_000)) * math.Pow(10, float64(r.Intn(12)-6))
	default:
		f = math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = 0
		}
	}
	return relalg.NumV(f)
}

func TestAppendRowRecordRefusesNonFinite(t *testing.T) {
	schema := relalg.NewSchema(
		relalg.Column{Name: "cname", Type: relalg.KindString},
		relalg.Column{Name: "revenue", Type: relalg.KindNumber},
	)
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tup := relalg.Tuple{relalg.StrV("IBM"), relalg.NumV(f)}
		if _, ok := appendRowRecord(nil, tup); ok {
			t.Errorf("appendRowRecord accepted %v", f)
		}
		err := unencodable(schema, 7, tup)
		if err == nil || !strings.Contains(err.Error(), `row 7, column "revenue"`) {
			t.Errorf("unencodable(%v) = %v, want row 7, column \"revenue\"", f, err)
		}
	}
	if err := unencodable(schema, 1, relalg.Tuple{relalg.StrV("IBM"), relalg.NumV(1)}); err != nil {
		t.Errorf("unencodable(finite row) = %v", err)
	}
}

// FuzzRowRecordEncode checks appendRowRecord against json.Encoder for
// rows built from arbitrary strings, finite floats, bools and NULLs
// (mask bit i turns value i into NULL).
func FuzzRowRecordEncode(f *testing.F) {
	for i, s := range edgeStrings {
		f.Add(s, edgeFloats[i%len(edgeFloats)], i%2 == 0, uint8(i))
	}
	f.Fuzz(func(t *testing.T, s string, x float64, b bool, mask uint8) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Skip("JSON cannot carry non-finite numbers")
		}
		tup := relalg.Tuple{relalg.StrV(s), relalg.NumV(x), relalg.BoolV(b)}
		for i := range tup {
			if mask&(1<<i) != 0 {
				tup[i] = relalg.Null
			}
		}
		checkRowRecord(t, tup[:int(mask>>4)%(len(tup)+1)])
		checkRowRecord(t, tup)
	})
}
