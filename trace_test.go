package odcfp_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/verilog"
)

// issuedSuspect analyses suite circuit name, issues one copy through a
// registry as /issue does, and returns the analysis with the copy's
// netlist in format ("bench" or "v"): the body of a trace request.
func issuedSuspect(tb testing.TB, name, format string) (*core.Analysis, []byte) {
	tb.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
	if err != nil {
		tb.Fatal(err)
	}
	items, err := registry.New(a).IssueBatch(context.Background(), a, []string{"suspect"})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	write := benchfmt.Write
	if format == "v" {
		write = verilog.Write
	}
	if err := write(&buf, items[0].Circuit); err != nil {
		tb.Fatal(err)
	}
	return a, buf.Bytes()
}

// traceExtract is a trace's suspect → assignment step: stage the suspect
// netlist and extract its fingerprint tolerantly, as /trace does for a
// .bench or Verilog suspect.
func traceExtract(a *core.Analysis, format string, src []byte) (core.Assignment, error) {
	stage := benchfmt.Stage
	if format == "v" {
		stage = verilog.Stage
	}
	s, err := stage(bytes.NewReader(src))
	if err != nil {
		return nil, err
	}
	asg, tampered, err := core.ExtractTolerant(a, s)
	if err == nil && len(tampered) > 0 {
		err = fmt.Errorf("%d tampered slots in an issued copy", len(tampered))
	}
	return asg, err
}

// BenchmarkTraceExtract times traceExtract on issued c880 and c5315 copies
// in .bench and Verilog: the part of an exact or score trace that reads
// the suspect.
func BenchmarkTraceExtract(b *testing.B) {
	for _, name := range []string{"c880", "c5315"} {
		for _, format := range []string{"bench", "v"} {
			b.Run(name+"/"+format, func(b *testing.B) {
				a, src := issuedSuspect(b, name, format)
				b.SetBytes(int64(len(src)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := traceExtract(a, format, src); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// The allocation ceiling of traceExtract on the issued c5315 .bench copy:
// the figures measured when it was set (go1.24, amd64), times the slack.
// The figures do not depend on the host, and -race leaves them unchanged,
// so the test holds in every test step, race-enabled or not. A change that
// lowers them lowers these figures; raising one is a gate change.
const (
	traceExtractAllocs = 56
	traceExtractBytes  = 377_689
	traceExtractSlack  = 1.10
)

// TestTraceExtractAllocs holds traceExtract on an issued c5315 copy under
// its allocation ceilings: allocations per run from testing.AllocsPerRun,
// and bytes per run from runtime.ReadMemStats, the least of a few runs,
// since TotalAlloc also counts what other goroutines allocate meanwhile.
func TestTraceExtractAllocs(t *testing.T) {
	a, src := issuedSuspect(t, "c5315", "bench")
	run := func() {
		if _, err := traceExtract(a, "bench", src); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, run)
	least := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("c5315 suspect → assignment: %.0f allocs, %d B", allocs, least)
	if ceiling := traceExtractAllocs * traceExtractSlack; allocs > ceiling {
		t.Errorf("%.0f allocations per trace extraction, ceiling %.0f", allocs, ceiling)
	}
	if ceiling := traceExtractBytes * traceExtractSlack; float64(least) > ceiling {
		t.Errorf("%d B allocated per trace extraction, ceiling %.0f", least, ceiling)
	}
}
