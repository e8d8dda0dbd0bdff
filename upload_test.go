package odcfp_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/ingest"
)

// upload is an upload's read of a design: the netlist bytes analysed
// through ingest.Analyze, as POST /designs does, and the digest the
// response names.
func upload(tb testing.TB, src []byte) {
	a, err := ingest.Analyze(context.Background(), "bench", src)
	if err != nil {
		tb.Fatal(err)
	}
	if a.Digest() == "" {
		tb.Fatal("empty digest")
	}
}

// BenchmarkUpload times upload on c5315's .bench text.
func BenchmarkUpload(b *testing.B) {
	src := benchNetlist(b, "c5315")
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upload(b, src)
	}
}

// The allocation ceiling of upload on c5315's .bench text: the figures
// measured when it was set (go1.24, amd64), times the slack. The figures
// do not depend on the host, so the test holds in every test step,
// race-enabled or not. Under -race, sync.Pool drops a random quarter of
// what is put back, and each drop costs the next upload its pooled scan
// scratch (nine allocations); the slack covers every run of the ten
// dropping it. A change that lowers the figures lowers them here; raising
// one is a gate change.
const (
	uploadAllocs = 110
	uploadBytes  = 1_183_368
	uploadSlack  = 1.10
)

// TestUploadAllocs holds upload on c5315 under its allocation ceilings:
// allocations per run from testing.AllocsPerRun, and bytes per run from
// runtime.ReadMemStats, the least of a few runs, since TotalAlloc also
// counts what other goroutines allocate meanwhile.
func TestUploadAllocs(t *testing.T) {
	src := benchNetlist(t, "c5315")
	run := func() { upload(t, src) }
	allocs := testing.AllocsPerRun(10, run)
	least := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("c5315 upload: %.0f allocs, %d B", allocs, least)
	if ceiling := uploadAllocs * uploadSlack; allocs > ceiling {
		t.Errorf("%.0f allocations per upload, ceiling %.0f", allocs, ceiling)
	}
	if ceiling := uploadBytes * uploadSlack; float64(least) > ceiling {
		t.Errorf("%d B allocated per upload, ceiling %.0f", least, ceiling)
	}
}

// retainedPerAnalysis is the heap one analysis keeps alive: n analyses of
// src through ingest.Analyze, digests taken, measured as live heap after two
// collections, per analysis.
func retainedPerAnalysis(tb testing.TB, src []byte, n int) uint64 {
	keep := make([]any, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		a, err := ingest.Analyze(context.Background(), "bench", src)
		if err != nil {
			tb.Fatal(err)
		}
		a.Digest()
		keep[i] = a
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return (after.HeapAlloc - before.HeapAlloc) / uint64(n)
}

// The heap one cached analysis keeps, per suite circuit: the figures
// measured when they were set (go1.24, amd64), times uploadSlack. They do
// not depend on the host, and -race leaves them unchanged.
var retainedBytes = map[string]uint64{
	"c432":  28_281,
	"c880":  81_072,
	"c5315": 534_488,
}

// TestAnalysisRetained holds the heap an analysis keeps alive under its
// ceiling: the circuit, its catalogue in exact storage and the memos, but
// none of the scan's scratch.
func TestAnalysisRetained(t *testing.T) {
	for name, want := range retainedBytes {
		got := retainedPerAnalysis(t, benchNetlist(t, name), 16)
		t.Logf("%s: %d B retained per analysis", name, got)
		if ceiling := float64(want) * uploadSlack; float64(got) > ceiling {
			t.Errorf("%s: %d B retained per analysis, ceiling %.0f", name, got, ceiling)
		}
	}
}
