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
// do not depend on the host, and -race leaves them unchanged, so the test
// holds in every test step, race-enabled or not. A change that lowers them
// lowers these figures; raising one is a gate change.
const (
	uploadAllocs = 138
	uploadBytes  = 1_424_168
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
