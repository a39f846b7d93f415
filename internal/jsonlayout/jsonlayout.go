// Package jsonlayout holds the lexical rules of the fixed JSON layouts
// that four codecs parse in place, in the bytes json.Marshal writes:
// the disk tier's records (internal/cachestore), the gossip wire's
// frames (internal/gossip), and cell results and the job body, a list
// of cells in the result layout (internal/service). The first three
// also write their layout. There is one string rule, Plain; CutString
// reads a string under it, CutInt an integer, CutUint an unsigned one,
// CutFloat a number as a float64, and ValueEnd a compact value;
// AppendFloat writes a float64. Each reader accepts a subset of what
// encoding/json accepts and rejects rather than guesses, and its caller
// then falls back to encoding/json. The contract the four codecs keep
// against the encoding/json codecs they replaced, allocation included,
// is checked in one place, package layouttest.
package jsonlayout

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// maxDepth bounds the nesting ValueEnd follows, and with it the
// recursion a hostile input can cause; no layout nests deeper, and a
// deeper value is left to encoding/json.
const maxDepth = 32

// Plain reports whether json.Marshal writes s between its quotes
// unchanged: s is valid UTF-8 and holds no control byte, no '"' or
// '\\', none of '<', '>' and '&', and neither U+2028 nor U+2029 (the
// last five are the ones its HTML-safe escaping rewrites).
func Plain(s string) bool { return plainPrefix([]byte(s)) == len(s) }

// plainASCII is the Plain rule for each ASCII byte: json.Marshal copies
// every one from the space on except '"', '\\', '<', '>' and '&'.
var plainASCII = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

// plainPrefix returns the length of the longest prefix of b that is
// Plain. Past ASCII, a one-byte rune is an invalid byte.
func plainPrefix(b []byte) int {
	i := 0
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if !plainASCII[c] {
				break
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(b[i:])
		if n == 1 || r == '\u2028' || r == '\u2029' {
			break
		}
		i += n
	}
	return i
}

// CutString reads a string's contents from b, which starts just after
// its opening quote, up to the first '"'. It fails unless the contents
// are Plain (so a string with an escape in it fails too) and b goes on
// there with end, which starts with that closing quote; rest is what
// follows end.
func CutString(b []byte, end string) (s, rest []byte, ok bool) {
	i := plainPrefix(b)
	if !bytes.HasPrefix(b[i:], []byte(end)) {
		return nil, nil, false
	}
	return b[:i], b[i+len(end):], true
}

// CutInt splits off the leading integer of b as json.Marshal writes
// one — no sign on 0, no leading zero — of at most 18 digits, so it
// fits an int64.
func CutInt(b []byte) (v int64, rest []byte, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	digits := b
	if neg {
		digits = b[1:]
	}
	n := 0
	for n < len(digits) && n < 19 && '0' <= digits[n] && digits[n] <= '9' {
		v = 10*v + int64(digits[n]-'0')
		n++
	}
	switch {
	case n == 0 || n > 18 || (digits[0] == '0' && (n > 1 || neg)):
		return 0, nil, false
	case neg:
		v = -v
	}
	return v, digits[n:], true
}

// CutUint splits off the leading unsigned integer of b as json.Marshal
// writes one — no sign, no leading zero — of at most 20 digits and at
// most math.MaxUint64.
func CutUint(b []byte) (v uint64, rest []byte, ok bool) {
	n := 0
	for n < len(b) && n < 21 && '0' <= b[n] && b[n] <= '9' {
		d := uint64(b[n] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, nil, false
		}
		v = 10*v + d
		n++
	}
	if n == 0 || n > 20 || b[0] == '0' && n > 1 {
		return 0, nil, false
	}
	return v, b[n:], true
}

// AppendFloat appends f as json.Marshal writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21 on (with "e-7", not "e-07"). f must be finite; json.Marshal
// refuses NaN and ±Inf.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// CutFloat splits off the leading JSON number of b and returns the
// float64 json.Unmarshal reads it as. It fails where json.Unmarshal
// would: on no number, and on one beyond float64's range.
func CutFloat(b []byte) (v float64, rest []byte, ok bool) {
	n := number(b, 0)
	if n < 0 {
		return 0, nil, false
	}
	v, err := strconv.ParseFloat(string(b[:n]), 64)
	if err != nil {
		return 0, nil, false
	}
	return v, b[n:], true
}

// ValueEnd returns the length of the JSON value b starts with, or -1
// unless b starts with a value that json.Marshal copies unchanged out
// of a json.RawMessage: compact (no whitespace), its strings Plain
// apart from escapes, nested at most 32 deep.
func ValueEnd(b []byte) int { return value(b, 0, 0) }

// value returns the end of the value that starts at b[i], or -1 (see
// ValueEnd).
func value(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch b[i] {
	case '{', '[':
		if depth == maxDepth {
			return -1
		}
		closing := byte('}')
		if b[i] == '[' {
			closing = ']'
		}
		if i++; i < len(b) && b[i] == closing {
			return i + 1
		}
		for {
			if closing == '}' {
				if i = str(b, i); i < 0 || i >= len(b) || b[i] != ':' {
					return -1
				}
				i++
			}
			if i = value(b, i, depth+1); i < 0 || i >= len(b) {
				return -1
			}
			switch b[i] {
			case closing:
				return i + 1
			case ',':
				i++
			default:
				return -1
			}
		}
	case '"':
		return str(b, i)
	case 't', 'f', 'n':
		for _, lit := range [...]string{"true", "false", "null"} {
			if bytes.HasPrefix(b[i:], []byte(lit)) {
				return i + len(lit)
			}
		}
		return -1
	}
	return number(b, i)
}

// str returns the end of the string that starts at b[i], or -1 (see
// ValueEnd).
func str(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		i += plainPrefix(b[i:])
		if i >= len(b) {
			return -1
		}
		switch b[i] {
		case '"':
			return i + 1
		case '\\':
			if i++; i >= len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return -1
				}
				i += 4
			default:
				return -1
			}
		default:
			return -1
		}
	}
	return -1
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number returns the end of the JSON number that starts at b[i], or -1.
func number(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digitsEnd(b, i); i < 0 {
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = digitsEnd(b, i+1); i < 0 {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digitsEnd(b, i); i < 0 {
			return -1
		}
	}
	return i
}

// digitsEnd returns the end of the run of digits that starts at b[i], or
// -1 if none does.
func digitsEnd(b []byte, i int) int {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}
