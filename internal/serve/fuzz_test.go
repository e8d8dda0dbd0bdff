package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/jsonw"
	"repro/internal/registry"
)

// oldWriteJSON is the encoding/json path /trace bodies took before
// TraceResponse.AppendJSON: the oracle the appender must match.
func oldWriteJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkAppendJSON builds strings, floats and a TraceResponse from one
// input and checks every hand-written appender against its encoding/json
// oracle. Registry snapshots have their own fuzz target,
// registry.FuzzSnapshotJSON.
func checkAppendJSON(t *testing.T, a, b string, x, y uint64, agree, total int, full bool) {
	t.Helper()
	for _, s := range []string{a, b} {
		want, _ := json.Marshal(s)
		if got := jsonw.AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
	fx, fy := math.Float64frombits(x), math.Float64frombits(y)
	for _, f := range []*float64{&fx, &fy} {
		if math.IsNaN(*f) || math.IsInf(*f, 0) {
			*f = float64(x%1000) / 7
			continue
		}
		want, _ := json.Marshal(*f)
		if got := jsonw.AppendFloat(nil, *f); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, want %s", *f, got, want)
		}
	}

	names := strings.Split(a, ",")
	resp := TraceResponse{Digest: b, Exact: names[0], FullRemoval: full}
	if agree%3 != 0 {
		resp.Threshold = fy
	}
	for i, n := range names[1:] {
		resp.Scores = append(resp.Scores, TraceScore{
			Buyer: n, AgreePresent: agree + i, TotalPresent: total,
			Fraction: fx, FractionAll: []float64{fy, fy, -fy, fy / 3}[i%4],
		})
		if i%2 == 0 {
			resp.Implicated = append(resp.Implicated, n+b)
		}
	}
	if got, want := resp.AppendJSON(nil), oldWriteJSON(t, resp); !bytes.Equal(got, want) {
		t.Fatalf("TraceResponse.AppendJSON:\n got %q\nwant %q", got, want)
	}

}

// FuzzAppendJSON: jsonw.AppendString over arbitrary bytes, jsonw.AppendFloat
// over finite bit patterns, and /trace bodies built from fuzzed names and
// scores all match encoding/json byte for byte.
func FuzzAppendJSON(f *testing.F) {
	f.Add("alice,bob,carol", "ebb615f0", math.Float64bits(0.4), math.Float64bits(1), 20, 50, false)
	f.Add("<b>&co,line\xe2\x80\xa8sep\xe2\x80\xa9,Zo\xc3\xab", "bad\xff\xfe", math.Float64bits(1e-7), math.Float64bits(1e21), 0, 0, true)
	f.Add("", "", uint64(0), uint64(1)<<63, 3, 0, false)
	// Zero fractions in a run with -0 among them: equal values, different
	// bytes.
	f.Add("x,a,b,c,d", "", uint64(0), uint64(0), 1, 2, false)
	f.Add("\x00\b\f\n\r\t\x1f\x7f\"\\", ",", math.Float64bits(-2.5e-300), math.Float64bits(123456789), -1, 7, true)
	f.Fuzz(checkAppendJSON)
}

// TestAppendJSONRandom runs the fuzz check over 2 000 seeded random inputs
// on every plain test run.
func TestAppendJSONRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "bob", ",", "<", ">", "&", "\"", "\\", "\n", "\x01", "\xc3\xa9", "\xe2\x80\xa8", "\xe2\x80\xa9", "\xff", "\xe6\x97"}
	str := func() string {
		var sb strings.Builder
		for n := rng.Intn(10); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return sb.String()
	}
	float := func() uint64 {
		switch rng.Intn(3) {
		case 0:
			return rng.Uint64()
		case 1:
			return math.Float64bits(float64(rng.Intn(60)) / float64(1+rng.Intn(60)))
		}
		return math.Float64bits(math.Ldexp(rng.Float64(), rng.Intn(160)-80))
	}
	for i := 0; i < 2000; i++ {
		checkAppendJSON(t, str(), str(), float(), float(), rng.Intn(100), rng.Intn(100), rng.Intn(2) == 0)
	}
}

// TestWriteJSONUnencodable: a value encoding/json refuses answers 500 with
// an error body, counted as a request error, instead of a 200 with an
// empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	before := mErrors.Value()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Errorf("body %q is not an error body (%v)", rec.Body.Bytes(), err)
	}
	if d := mErrors.Value() - before; d != 1 {
		t.Errorf("request_errors rose by %d, want 1", d)
	}
}

// syntheticRanking returns n scores of one 82-slot suspect in trace rank
// order, with runs of equal fractions and names that need escaping.
func syntheticRanking(n int) []registry.Score {
	rng := rand.New(rand.NewSource(int64(n)))
	scores := make([]registry.Score, n)
	for i := range scores {
		present := rng.Intn(41)
		scores[i] = registry.Score{
			Name:         fmt.Sprintf("buyer-%05d<%d>", i, i%7),
			AgreePresent: present, TotalPresent: 40,
			AgreeAll: present + rng.Intn(43), TotalAll: 82,
		}
	}
	slices.SortStableFunc(scores, func(x, y registry.Score) int {
		if c := cmp.Compare(y.AgreePresent, x.AgreePresent); c != 0 {
			return c
		}
		return cmp.Compare(y.AgreeAll, x.AgreeAll)
	})
	return scores
}

// TestTraceBodyStreams: a 10 001-row score body set from a registry
// ranking, streamed by WriteTo across many chunks or appended whole, is
// byte-identical to encoding/json's encoding of the same answer with the
// ranking copied into Scores.
func TestTraceBodyStreams(t *testing.T) {
	ranked := syntheticRanking(10001)
	resp := TraceResponse{Digest: "ebb615f0", Exact: ranked[0].Name}
	resp.SetScores(ranked, 0.5)
	copied := resp
	for _, sc := range ranked {
		copied.Scores = append(copied.Scores, TraceScore{
			Buyer: sc.Name, AgreePresent: sc.AgreePresent, TotalPresent: sc.TotalPresent,
			Fraction: sc.Fraction(), FractionAll: sc.FractionAll(),
		})
	}
	want := oldWriteJSON(t, copied)
	var streamed bytes.Buffer
	n, err := resp.WriteTo(&streamed)
	if err != nil || n != int64(len(want)) {
		t.Fatalf("WriteTo = %d, %v; want %d bytes", n, err, len(want))
	}
	if len(want) < 10*traceChunk {
		t.Fatalf("a %d-byte body does not cross enough chunks", len(want))
	}
	if !bytes.Equal(streamed.Bytes(), want) {
		t.Error("streamed body differs from encoding/json")
	}
	if !bytes.Equal(resp.AppendJSON(nil), want) {
		t.Error("appended body differs from encoding/json")
	}
}

// TestTraceBodyAllocs: streaming a score body allocates the same few
// bytes at 10 001 rows as at 1 000, so no buffer grows with the buyers.
func TestTraceBodyAllocs(t *testing.T) {
	allocated := func(rows int) uint64 {
		resp := TraceResponse{Digest: "ebb615f0"}
		resp.SetScores(syntheticRanking(rows), 1)
		// The least of a few runs: TotalAlloc also counts what other
		// goroutines allocate meanwhile.
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := resp.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := allocated(1000), allocated(10001)
	t.Logf("WriteTo allocates %d B at 1 000 rows, %d B at 10 001", small, large)
	if large > small+1024 || large > 2*traceChunk {
		t.Errorf("WriteTo allocates %d B at 1 000 rows and %d B at 10 001: it grows with the rows", small, large)
	}
}
