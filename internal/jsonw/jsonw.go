// Package jsonw appends JSON scalars exactly as encoding/json encodes
// them, so a hot writer can append a response straight into a buffer
// instead of reflecting over an intermediate value. The daemon's two
// Θ(buyers) writers use it: /trace score bodies (serve.TraceResponse),
// streamed to the client through one fixed-size buffer, and registry
// snapshots (registry.Registry.AppendJSON), appended into the store's
// reused buffer. Everything else keeps encoding/json, which also stays as
// the test oracle these functions are checked and fuzzed against byte for
// byte.
package jsonw

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// plainByte marks the ASCII bytes AppendString copies through unescaped.
var plainByte = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// Plain reports whether AppendString writes s as itself between quotes:
// s holds no control byte, '"', '\\', '<', '>', '&', invalid UTF-8,
// U+2028 or U+2029. A writer that checked a string once can then copy
// it between quotes itself.
func Plain(s string) bool {
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if !plainByte[b] {
				return false
			}
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 || c == '\u2028' || c == '\u2029' {
			return false
		}
		i += size
	}
	return true
}

// AppendString appends s as a quoted JSON string with encoding/json's
// HTML-safe escaping: '"' and '\\' are backslash-escaped; '\b', '\f',
// '\n', '\r' and '\t' take their short forms; other control bytes and
// '<', '>', '&' become \u00XX; U+2028 and U+2029 become \u2028 and
// \u2029; and each byte of invalid UTF-8 becomes \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if plainByte[b] {
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
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json encodes a float64: the shortest
// representation that round-trips, in 'f' form, or in 'e' form when
// |f| < 1e-6 or |f| ≥ 1e21 (f ≠ 0), with a two-digit negative exponent
// trimmed ("1e-07" → "1e-7"). f must be finite: encoding/json refuses NaN
// and ±Inf, and so must the caller.
func AppendFloat(dst []byte, f float64) []byte {
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
