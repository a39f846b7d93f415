package jsonlayout

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestKit pins each reader's verdict on the inputs each codec's layout
// depends on, the edges of the Plain rule among them.
func TestKit(t *testing.T) {
	for _, row := range []struct {
		s     string
		plain bool
	}{
		{"", true},
		{"push", true},
		{"é ü \x7f \ufffd", true},
		{"unknown method \"teleport\"", false},
		{"a<b", false}, {"a>b", false}, {"a&b", false}, {`a\b`, false},
		{"tab\there", false}, {"\x00", false},
		{"line\u2028sep", false}, {"para\u2029sep", false},
		{"\xff", false}, {"\xe2\x80", false},
	} {
		if got := Plain(row.s); got != row.plain {
			t.Errorf("Plain(%q) = %v, want %v", row.s, got, row.plain)
		}
		s, rest, ok := CutString([]byte(row.s+`",x`), `",`)
		if whole := ok && string(rest) == "x"; whole != row.plain || whole && string(s) != row.s {
			t.Errorf("CutString(%q) = %q, %q, %v", row.s+`",x`, s, rest, ok)
		}
	}
	if _, _, ok := CutString([]byte("unterminated"), `"`); ok {
		t.Error("CutString accepts a string without its closing quote")
	}

	for _, row := range []struct {
		in   string
		v    int64
		rest string
		ok   bool
	}{
		{"0}", 0, "}", true},
		{"-7,", -7, ",", true},
		{"123456789012345678", 123456789012345678, "", true},
		{"-123456789012345678}", -123456789012345678, "}", true},
		{"1234567890123456789", 0, "", false},
		{"-0}", 0, "", false},
		{"01", 0, "", false},
		{"-", 0, "", false},
		{"", 0, "", false},
		{"+1", 0, "", false},
	} {
		v, rest, ok := CutInt([]byte(row.in))
		if v != row.v || string(rest) != row.rest || ok != row.ok {
			t.Errorf("CutInt(%q) = %d, %q, %v; want %d, %q, %v", row.in, v, rest, ok, row.v, row.rest, row.ok)
		}
	}

	for _, row := range []struct {
		in   string
		v    uint64
		rest string
		ok   bool
	}{
		{"0,", 0, ",", true},
		{"16045690984503098381}", 16045690984503098381, "}", true},
		{"18446744073709551615", math.MaxUint64, "", true},
		{"18446744073709551616", 0, "", false},
		{"99999999999999999999", 0, "", false},
		{"100000000000000000000", 0, "", false},
		{"00", 0, "", false},
		{"-1", 0, "", false},
		{"", 0, "", false},
	} {
		v, rest, ok := CutUint([]byte(row.in))
		if v != row.v || string(rest) != row.rest || ok != row.ok {
			t.Errorf("CutUint(%q) = %d, %q, %v; want %d, %q, %v", row.in, v, rest, ok, row.v, row.rest, row.ok)
		}
	}

	for _, row := range []struct {
		f    float64
		text string
	}{
		{0, "0"}, {math.Copysign(0, -1), "-0"}, {1, "1"}, {-2.5, "-2.5"}, {0.1, "0.1"},
		{1e-6, "0.000001"}, {1e-7, "1e-7"}, {-1.5e-9, "-1.5e-9"}, {1e20, "100000000000000000000"},
		{1e21, "1e+21"}, {5e-324, "5e-324"}, {math.MaxFloat64, "1.7976931348623157e+308"},
	} {
		if got := string(AppendFloat([]byte("x"), row.f)); got != "x"+row.text {
			t.Errorf("AppendFloat(%v) = %q, want %q", row.f, got, "x"+row.text)
		}
	}

	for _, row := range []struct {
		in   string
		v    float64
		rest string
		ok   bool
	}{
		{"0,", 0, ",", true},
		{"-1.5e-9]", -1.5e-9, "]", true},
		{"7E+2}", 700, "}", true},
		{"1e-400", 0, "", true},
		{"1e400", 0, "", false},
		{"-1e309", 0, "", false},
		{"01", 0, "1", true},
		{".5", 0, "", false}, {"1.", 0, "", false}, {"+1", 0, "", false}, {"NaN", 0, "", false}, {"-", 0, "", false},
	} {
		v, rest, ok := CutFloat([]byte(row.in))
		if v != row.v || string(rest) != row.rest || ok != row.ok {
			t.Errorf("CutFloat(%q) = %v, %q, %v; want %v, %q, %v", row.in, v, rest, ok, row.v, row.rest, row.ok)
		}
	}

	for _, row := range []struct {
		in  string
		end int
	}{
		{`{}`, 2}, {`[]x`, 2}, {`{"round":7}`, 11}, {`{"informed":true}`, 17},
		{`[1,-2.5e-3,0,1E+9,null,false,"é"]`, 34},
		{`{"a":{"b":["\u003c\n\"\\\/\b\f\r\t"]}}`, 38},
		{`7}`, 1}, {`"x",`, 3}, {"\"\x7f\ufffd\"", 6},
		{strings.Repeat("[", 32) + strings.Repeat("]", 32), 64},
		{strings.Repeat("[", 33) + strings.Repeat("]", 33), -1},
		{` 1`, -1}, {`{"a": 1}`, -1}, {`[1 ]`, -1}, {`{"a"}`, -1}, {`{1:2}`, -1}, {`[1;2]`, -1},
		{`"<"`, -1}, {`"&"`, -1}, {"\"\u2028\"", -1}, {"\"\xff\"", -1}, {"\"\t\"", -1},
		{`"\x"`, -1}, {`"\n`, -1}, {`"\u12g4"`, -1}, {`"\u12"`, -1}, {`"\`, -1}, {`"abc`, -1},
		{`tru`, -1}, {`nul`, -1}, {`fals`, -1}, {``, -1}, {`{`, -1}, {`[1,`, -1},
		{`01`, 1}, {`-`, -1}, {`1.`, -1}, {`1e`, -1}, {`1e+`, -1}, {`.5`, -1}, {`+1`, -1},
	} {
		if end := ValueEnd([]byte(row.in)); end != row.end {
			t.Errorf("ValueEnd(%q) = %d, want %d", row.in, end, row.end)
		}
	}
}

// FuzzLayoutKit holds every reader to encoding/json. For fuzzed bytes
// b:
//   - if Plain(b), json.Marshal writes b between quotes unchanged, and
//     CutString reads exactly b back from b and a closing quote;
//   - if CutString accepts b, json.Unmarshal of the string it cut gives
//     the same string;
//   - CutInt accepts b exactly when b starts with an integer of at most
//     18 digits written as strconv writes it (so never -0, a leading
//     zero or a 19th digit), and then agrees with strconv.ParseInt;
//   - CutUint accepts b exactly when b starts with 1–20 digits without a
//     leading zero that strconv.ParseUint reads as a uint64, and then
//     agrees with it;
//   - if CutFloat accepts b, json.Unmarshal reads the number it cut as
//     the same float64, and if b is a JSON number (possibly followed by
//     whitespace) that json.Unmarshal reads as a float64, CutFloat cuts
//     all of it and reads the same;
//   - for the fuzzed float x, if finite, AppendFloat writes what
//     json.Marshal writes, and CutFloat reads it back as x;
//   - if ValueEnd returns an end e, b[:e] is valid JSON that
//     json.Marshal copies unchanged out of a json.RawMessage; and if
//     all of b is such a value, in valid UTF-8 and with at most 32
//     brackets, ValueEnd returns len(b).
func FuzzLayoutKit(f *testing.F) {
	for _, s := range []string{
		"", "push", "é", "\u2028", "\xff", "a<b&c", "x\"y", `a\b`, "\x7f", "\ufffd",
		"0", "-0", "01", "-7}", "123456789012345678,", "1234567890123456789", "-9223372036854775808",
		`7}`, `{}`, `{"round":-7}`, `{"informed":true}`, `[1,2.5e-3,"é"]`, ` {"a" : 1} `,
		`"<\ud800"`, `{"a":[null,false,true,{"b":"\n"}]}`, strings.Repeat("[", 33) + strings.Repeat("]", 33),
	} {
		f.Add([]byte(s), 0.0)
	}
	for _, s := range []string{
		"18446744073709551615", "18446744073709551616", "100000000000000000000", "00",
		"1e400", "1e-400", "-0.0e+0", "1.5E-7 ", "2.5e-3,", "123456789012345678901234567890",
	} {
		f.Add([]byte(s), 1.0)
	}
	for _, x := range []float64{math.Copysign(0, -1), 1e-6, 1e-7, 1e21, 5e-324, math.MaxFloat64} {
		f.Add([]byte(nil), x)
	}
	f.Fuzz(func(t *testing.T, b []byte, x float64) {
		if Plain(string(b)) {
			if m, err := json.Marshal(string(b)); err != nil || string(m) != `"`+string(b)+`"` {
				t.Fatalf("Plain(%q), but json.Marshal writes %s, %v", b, m, err)
			}
		}
		quoted := append(append([]byte(nil), b...), '"')
		s, rest, ok := CutString(quoted, `"`)
		if whole := ok && len(rest) == 0; whole != Plain(string(b)) || whole && !bytes.Equal(s, b) {
			t.Fatalf("CutString(%q) = %q, %q, %v; Plain = %v", quoted, s, rest, ok, Plain(string(b)))
		}

		if s, _, ok := CutString(b, `"`); ok {
			var got string
			if err := json.Unmarshal(append(append([]byte{'"'}, s...), '"'), &got); err != nil || got != string(s) {
				t.Fatalf("CutString(%q) cut %q, which json.Unmarshal reads as %q, %v", b, s, got, err)
			}
		}

		v, rest, ok := CutInt(b)
		digits := bytes.TrimPrefix(b, []byte("-"))
		n := len(digits) - len(bytes.TrimLeft(digits, "0123456789"))
		tok := b[:len(b)-len(digits)+n]
		canonical := n > 0 && n <= 18 && (digits[0] != '0' || n == 1 && len(tok) == 1)
		if ok != canonical {
			t.Fatalf("CutInt(%q) ok = %v, want %v", b, ok, canonical)
		}
		if ok {
			want, err := strconv.ParseInt(string(tok), 10, 64)
			if err != nil || v != want || !bytes.Equal(rest, b[len(tok):]) || string(strconv.AppendInt(nil, v, 10)) != string(tok) {
				t.Fatalf("CutInt(%q) = %d, %q; strconv.ParseInt gives %d, %v", b, v, rest, want, err)
			}
		}

		u, rest, ok := CutUint(b)
		n = len(b) - len(bytes.TrimLeft(b, "0123456789"))
		want, err := strconv.ParseUint(string(b[:n]), 10, 64)
		if canonical := n > 0 && n <= 20 && (b[0] != '0' || n == 1) && err == nil; ok != canonical {
			t.Fatalf("CutUint(%q) ok = %v, want %v", b, ok, canonical)
		}
		if ok && (u != want || !bytes.Equal(rest, b[n:])) {
			t.Fatalf("CutUint(%q) = %d, %q; strconv.ParseUint gives %d", b, u, rest, want)
		}

		fv, rest, ok := CutFloat(b)
		if ok {
			var got float64
			if err := json.Unmarshal(b[:len(b)-len(rest)], &got); err != nil || math.Float64bits(got) != math.Float64bits(fv) {
				t.Fatalf("CutFloat(%q) = %v, %q; json.Unmarshal of the number gives %v, %v", b, fv, rest, got, err)
			}
		}
		var got float64
		if len(b) > 0 && (b[0] == '-' || '0' <= b[0] && b[0] <= '9') && json.Unmarshal(b, &got) == nil &&
			(!ok || len(bytes.TrimSpace(rest)) != 0 || math.Float64bits(got) != math.Float64bits(fv)) {
			t.Fatalf("CutFloat(%q) = %v, %q, %v; json.Unmarshal reads %v", b, fv, rest, ok, got)
		}

		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			text := AppendFloat(nil, x)
			if m, err := json.Marshal(x); err != nil || !bytes.Equal(text, m) {
				t.Fatalf("AppendFloat(%v) = %s; json.Marshal writes %s, %v", x, text, m, err)
			}
			if back, rest, ok := CutFloat(text); !ok || len(rest) != 0 || math.Float64bits(back) != math.Float64bits(x) {
				t.Fatalf("CutFloat(AppendFloat(%v)) = %v, %q, %v", x, back, rest, ok)
			}
		}

		if e := ValueEnd(b); e >= 0 {
			m, err := json.Marshal(json.RawMessage(b[:e]))
			if !json.Valid(b[:e]) || err != nil || !bytes.Equal(m, b[:e]) {
				t.Fatalf("ValueEnd(%q) = %d, but json.Marshal of the value writes %q, %v", b, e, m, err)
			}
		} else if m, err := json.Marshal(json.RawMessage(b)); err == nil && bytes.Equal(m, b) && utf8.Valid(b) &&
			bytes.Count(b, []byte("["))+bytes.Count(b, []byte("{")) <= maxDepth {
			t.Fatalf("ValueEnd(%q) = -1, but json.Marshal copies it unchanged", b)
		}
	})
}
