package cec_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cec"
	"repro/internal/cell"
	"repro/internal/core"
)

// TestComposeMatchesOracleSuite: on every suite circuit and extra — those
// whose certificates fall back to a session (des, k2, t481, i10, i8, vda,
// c7552) included — compose gives the oracle's windows for the analysis's
// location windows, and for the same windows in reverse order.
func TestComposeMatchesOracleSuite(t *testing.T) {
	for _, spec := range append(bench.Suite(), bench.Extras()...) {
		t.Run(spec.Name, func(t *testing.T) {
			a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
			if err != nil {
				t.Fatal(err)
			}
			windows := a.Windows()
			if err := cec.SameComposition(a.Circuit, a.Slots(), windows); err != nil {
				t.Fatal(err)
			}
			for i, j := 0, len(windows)-1; i < j; i, j = i+1, j-1 {
				windows[i], windows[j] = windows[j], windows[i]
			}
			if err := cec.SameComposition(a.Circuit, a.Slots(), windows); err != nil {
				t.Fatalf("reversed windows: %v", err)
			}
		})
	}
}
