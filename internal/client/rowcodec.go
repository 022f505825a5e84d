package client

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"repro/internal/server"
)

// rowPrefix opens every row record the server writes; its values follow.
const rowPrefix = `{"type":"row","values":[`

// rowSlotChunk is how many value slots rowDecoder allocates at once.
const rowSlotChunk = 512

// rowDecoder decodes the NDJSON records of /api/query/stream. A row
// record in the strict form the server writes — rowPrefix, values with
// no whitespace, escape-free strings of valid UTF-8, "]}" — is parsed by
// hand; every other line goes to json.Unmarshal. The result is the one
// json.Unmarshal into a server.StreamRecord would give, error or not.
type rowDecoder struct {
	vals  []interface{} // values of the row being parsed
	slots []interface{} // unused tail of the chunk rows' values are cut from
}

// decode decodes one line (its '\n' optional).
func (d *rowDecoder) decode(line []byte) (server.StreamRecord, error) {
	if vals, ok := d.parseRow(line); ok {
		return server.StreamRecord{Type: "row", Values: vals}, nil
	}
	var rec server.StreamRecord
	err := json.Unmarshal(line, &rec)
	return rec, err
}

// parseRow parses a strict row record; ok=false sends the line to the
// fallback. Each row gets its own values slice, carved from a shared
// chunk, because callers keep rows past the next one.
func (d *rowDecoder) parseRow(line []byte) (row []interface{}, ok bool) {
	vals, ok := appendRowValues(d.vals[:0], line)
	if ok {
		row = []interface{}{}
		if n := len(vals); n > 0 {
			if len(d.slots) < n {
				d.slots = make([]interface{}, max(n, rowSlotChunk))
			}
			row, d.slots = d.slots[:n:n], d.slots[n:]
			copy(row, vals)
		}
	}
	clear(vals) // the scratch must not keep the row's values alive
	d.vals = vals[:0]
	return row, ok
}

// appendRowValues appends the values of a strict row record to vals.
func appendRowValues(vals []interface{}, line []byte) (_ []interface{}, ok bool) {
	p, found := bytes.CutPrefix(line, []byte(rowPrefix))
	if !found {
		return vals, false
	}
	p = bytes.TrimSuffix(p, []byte{'\n'})
	if len(p) > 0 && p[0] == ']' {
		return vals, string(p[1:]) == "}"
	}
	for {
		v, n := parseValue(p)
		if n == 0 {
			return vals, false
		}
		vals = append(vals, v)
		if p = p[n:]; len(p) == 0 {
			return vals, false
		}
		c := p[0]
		p = p[1:]
		if c == ']' {
			return vals, string(p) == "}"
		}
		if c != ',' {
			return vals, false
		}
	}
}

// parseValue parses one strict value at the start of p and returns it
// with the bytes it took; n=0 means p does not start with one.
func parseValue(p []byte) (v interface{}, n int) {
	if len(p) == 0 {
		return nil, 0
	}
	switch c := p[0]; {
	case c == '"':
		ascii := true
		for i := 1; i < len(p); i++ {
			switch b := p[i]; {
			case b == '"':
				s := p[1:i]
				if !ascii && !utf8.Valid(s) {
					return nil, 0 // json.Unmarshal replaces invalid bytes
				}
				return string(s), i + 1
			case b == '\\' || b < ' ':
				return nil, 0 // escapes and control bytes: fallback
			case b >= utf8.RuneSelf:
				ascii = false
			}
		}
		return nil, 0
	case c == '-' || c >= '0' && c <= '9':
		n := numberLen(p)
		if n == 0 {
			return nil, 0
		}
		f, err := strconv.ParseFloat(string(p[:n]), 64)
		if err != nil {
			return nil, 0 // out of range: json.Unmarshal reports it
		}
		return f, n
	case bytes.HasPrefix(p, []byte("true")):
		return true, 4
	case bytes.HasPrefix(p, []byte("false")):
		return false, 5
	case bytes.HasPrefix(p, []byte("null")):
		return nil, 4
	}
	return nil, 0
}

// numberLen returns the length of the JSON number at the start of p
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), or 0 if there is none.
func numberLen(p []byte) int {
	i := 0
	if i < len(p) && p[i] == '-' {
		i++
	}
	switch {
	case i < len(p) && p[i] == '0':
		i++
	case i < len(p) && p[i] >= '1' && p[i] <= '9':
		i = digits(p, i+1)
	default:
		return 0
	}
	if i < len(p) && p[i] == '.' {
		j := digits(p, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		i++
		if i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		j := digits(p, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

// digits returns the index of the first non-digit in p at or after i.
func digits(p []byte, i int) int {
	for i < len(p) && p[i] >= '0' && p[i] <= '9' {
		i++
	}
	return i
}
