package client

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/server"
)

// checkDecode holds rowDecoder.decode to json.Unmarshal into a
// server.StreamRecord: same record, and an error exactly when it errs.
func checkDecode(t testing.TB, d *rowDecoder, line []byte) {
	t.Helper()
	var want server.StreamRecord
	wantErr := json.Unmarshal(line, &want)
	got, err := d.decode(line)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decode(%q): err = %v, json.Unmarshal err = %v", line, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode(%q)\n got %#v\nwant %#v", line, got, want)
	}
}

// edgeLines are row records on and just off the strict grammar: what the
// server writes (escapes included, which take the fallback), malformed
// numbers, whitespace, other keys, and other records.
var edgeLines = []string{
	`{"type":"row","values":["CO0001",9600000]}` + "\n",
	`{"type":"row","values":["NTT",1e+21,-1.5e-7,0,-0,0.1,true,false,null]}`,
	`{"type":"row","values":[]}`,
	`{"type":"row"}`,
	`{"type":"row","values":["AT\u0026T","\u003cb\u003e","q\"d","b\\s","\n\t","\u2028","\ufffd","\ud800"]}`,
	`{"type":"row","values":["caf` + "\u00e9\U0001F600" + `",""]}`,
	`{"type":"row","values":["` + "\xff" + `"]}`,
	`{"type":"row","values":["` + "\xed\xa0\x80" + `"]}`,
	`{"type":"row","values":["` + "a\tb" + `"]}`,
	`{"type":"row","values":[1.]}`,
	`{"type":"row","values":[-.5]}`,
	`{"type":"row","values":[01]}`,
	`{"type":"row","values":[1e]}`,
	`{"type":"row","values":[+1]}`,
	`{"type":"row","values":[1e400]}`,
	`{"type":"row","values":[1e-400]}`,
	`{"type":"row","values":[0x10]}`,
	`{"type":"row","values":[1_000]}`,
	`{"type":"row","values":[NaN]}`,
	`{"type":"row","values":[tru]}`,
	`{"type":"row","values":[nullx]}`,
	`{"type":"row","values":[1,]}`,
	`{"type":"row","values":[,1]}`,
	`{"type":"row","values":[1 ,2]}`,
	`{"type":"row","values":[1]} `,
	`{"type":"row","values":[1]}` + "\n\n",
	`{"type":"row","values":[1]}}`,
	`{"type":"row","values":[1]`,
	`{"type":"row","values":["unterminated]}`,
	`{"type":"row","values":[1],"rows":2}`,
	`{"type":"row","values":[1],"values":[2]}`,
	`{"type":"row","values":[[1]]}`,
	`{"type":"row","values":[{"a":1}]}`,
	`{"TYPE":"row","values":[1]}`,
	`{"type":"header","columns":[{"name":"cname","type":"string"}],"branches":3}`,
	`{"type":"stats","rows":2225}`,
	`{"type":"error","rows":2,"error":"server: row 3, column \"n\": NaN has no JSON encoding"}`,
	``,
	"\n",
	`null`,
}

// TestDecodeMatchesUnmarshal is the randomized table test: the edge
// lines, then server-shaped rows of random values and their mutations.
func TestDecodeMatchesUnmarshal(t *testing.T) {
	var d rowDecoder
	for _, line := range edgeLines {
		checkDecode(t, &d, []byte(line))
	}
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 5000; n++ {
		vals := make([]interface{}, r.Intn(5))
		for i := range vals {
			vals[i] = randomValue(r)
		}
		line, err := json.Marshal(server.StreamRecord{Type: "row", Values: vals})
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, &d, line)
		if len(line) > 0 && r.Intn(2) == 0 {
			const mutations = "0.-+eE,]}\"\\ x\x00\xff"
			line[r.Intn(len(line))] = mutations[r.Intn(len(mutations))]
			checkDecode(t, &d, line)
		}
	}
}

// TestDecodedRowsAreIndependent pins that rows carved from the shared
// slot chunk do not overlap: a caller may keep and modify each one.
func TestDecodedRowsAreIndependent(t *testing.T) {
	var d rowDecoder
	var rows [][]interface{}
	for i := 0; i < 3*rowSlotChunk/2; i++ {
		rec, err := d.decode([]byte(`{"type":"row","values":["a",` + strconv.Itoa(i) + `]}`))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, rec.Values)
	}
	for _, row := range rows {
		_ = append(row, "extra") // must not write into the next row
	}
	for i, row := range rows {
		if len(row) != 2 || row[0] != "a" || row[1] != float64(i) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
}

func randomValue(r *rand.Rand) interface{} {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		b := make([]byte, r.Intn(10))
		for i := range b {
			if r.Intn(2) == 0 {
				b[i] = byte('a' + r.Intn(26))
			} else {
				b[i] = byte(r.Intn(256))
			}
		}
		return string(b)
	}
	if r.Intn(2) == 0 {
		return float64(r.Intn(2_000_000)) * math.Pow(10, float64(r.Intn(40)-20))
	}
	f := math.Float64frombits(r.Uint64())
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0.0
	}
	return f
}

// FuzzRowRecordDecode holds the cursor's decode to json.Unmarshal for
// arbitrary lines.
func FuzzRowRecordDecode(f *testing.F) {
	for _, line := range edgeLines {
		f.Add([]byte(line))
	}
	var d rowDecoder
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecode(t, &d, line)
	})
}
