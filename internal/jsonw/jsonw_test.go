package jsonw

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// checkString compares AppendString with encoding/json, the oracle, and
// checks that Plain(s) holds exactly when the oracle writes s as itself
// in quotes.
func checkString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
		t.Errorf("AppendString(%q) = %s, want %s", s, got[1:], want)
	}
	if got, same := Plain(s), string(want) == `"`+s+`"`; got != same {
		t.Errorf("Plain(%q) = %v, want %v", s, got, same)
	}
}

// checkFloat compares AppendFloat with encoding/json, the oracle.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendFloat([]byte("x"), f); string(got) != "x"+string(want) {
		t.Errorf("AppendFloat(%v) = %s, want %s", f, got[1:], want)
	}
}

func TestAppendString(t *testing.T) {
	for b := 0; b < 256; b++ {
		checkString(t, string([]byte{byte(b)}))
		checkString(t, "a"+string([]byte{byte(b)})+"z")
	}
	for _, s := range []string{
		"", "alice", `"quoted" \back\slash/`, "<script>&amp;</script>",
		"line\u2028sep\u2029end", "Zoë 日本 😀", "\x7f\u0080\u00a0",
		"bad\xff\xfeutf8", "\xed\xa0\x80", "trunc\xe6\x97", "\xf4\x90\x80\x80",
		"\b\f\n\r\t\x00\x1f", "\ufffd", "buyer-00042", "31415926535",
	} {
		checkString(t, s)
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "<", "&", "\"", "\\", "\n", "\x01", "é", "\u2028", "\u2029", "\xff", "\xe2\x80", "日"}
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			if rng.Intn(3) == 0 {
				sb.WriteByte(byte(rng.Intn(256)))
			} else {
				sb.WriteString(alphabet[rng.Intn(len(alphabet))])
			}
		}
		checkString(t, sb.String())
	}
}

func TestAppendFloat(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.4, 1.0 / 3, 2.0 / 3, 0.45121951219512196,
		1e-6, 9.99e-7, 1e-7, -1.5e-7, 1.234e-10, 5e-324, 1e20, 1e21, 9.999e20,
		-1e21, 123456789012345678, 1e100, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		checkFloat(t, f)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkFloat(t, f)
		checkFloat(t, float64(rng.Intn(1000))/float64(1+rng.Intn(1000)))
	}
}
