package server

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/relalg"
)

// The row record is the hot line of /api/query/stream: one per result
// row. appendRowRecord writes it without reflection, byte for byte what
// json.Encoder writes for StreamRecord{Type: "row", Values: ...} with the
// Values built by valueJSON. The header, stats and error records are rare
// and stay on encoding/json.

// appendRowRecord appends t's row record, newline included, to dst. ok is
// false, and dst's bytes past its original length are garbage, when t
// holds a number JSON cannot carry (NaN or ±Inf); see unencodable.
func appendRowRecord(dst []byte, t relalg.Tuple) (_ []byte, ok bool) {
	if len(t) == 0 {
		return append(dst, "{\"type\":\"row\"}\n"...), true // Values is omitempty
	}
	dst = append(dst, `{"type":"row","values":[`...)
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v.K {
		case relalg.KindNumber:
			if math.IsNaN(v.N) || math.IsInf(v.N, 0) {
				return dst, false
			}
			dst = appendJSONFloat(dst, v.N)
		case relalg.KindString:
			dst = appendJSONString(dst, v.S)
		case relalg.KindBool:
			dst = strconv.AppendBool(dst, v.B)
		default:
			dst = append(dst, "null"...)
		}
	}
	return append(dst, "]}\n"...), true
}

// unencodable returns an error naming the first value of t, the row'th
// row of an answer over schema, that JSON cannot carry, or nil.
func unencodable(schema relalg.Schema, row int, t relalg.Tuple) error {
	for i, v := range t {
		if v.K == relalg.KindNumber && (math.IsNaN(v.N) || math.IsInf(v.N, 0)) {
			return fmt.Errorf("server: row %d, column %q: %v has no JSON encoding", row, schema.Columns[i].Name, v.N)
		}
	}
	return nil
}

// appendJSONFloat formats a finite f as encoding/json does: like ES6
// number-to-string, 'f' format except for |f| < 1e-6 or |f| >= 1e21, whose
// exponent drops its leading zero (e-07 -> e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s as json.Encoder does with HTML escaping on:
// '"' and '\\' backslash-escaped, \b \f \n \r \t by name, other control
// bytes and <, >, & as \u00XX, U+2028 and U+2029 escaped, and each byte
// of invalid UTF-8 replaced by \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
