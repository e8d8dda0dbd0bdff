package circuit_test

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
)

// TestSweepMatchesOracleSuite: Sweep builds the oracle's circuit for every
// suite circuit and extra, and for fingerprinted working copies of them
// under seeded random assignments with some modifications disabled again,
// which leaves parked helper inverters and a parking constant as dead
// gates.
func TestSweepMatchesOracleSuite(t *testing.T) {
	dead := 0 // working copies with dead gates to remove
	for _, spec := range append(bench.Suite(), bench.Extras()...) {
		t.Run(spec.Name, func(t *testing.T) {
			c := spec.Build()
			if err := circuit.SameSweep(c); err != nil {
				t.Fatal(err)
			}
			a, err := core.Analyze(c, core.DefaultOptions(cell.Default()))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(spec.Name))))
			for k := 0; k < 3; k++ {
				asg := core.EmptyAssignment(a)
				for i := range asg {
					for j := range asg[i] {
						asg[i][j] = rng.Intn(len(a.Locations[i].Targets[j].Variants)+1) - 1
					}
				}
				w, err := core.NewWorking(a, asg)
				if err != nil {
					t.Fatal(err)
				}
				for m := range w.Mods {
					if rng.Intn(3) == 0 {
						if err := w.Disable(m); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := circuit.SameSweep(w.C); err != nil {
					t.Fatalf("working copy %d: %v", k, err)
				}
				if _, removed := w.C.Sweep(); removed > 0 {
					dead++
				}
			}
		})
	}
	if dead == 0 {
		t.Fatal("no working copy had dead gates: parked inverters went untested")
	}
}

// TestSweepAllocsBounded: sweeping a working copy allocates about ten
// slices and slabs plus the name index, whose map grows by one table per
// thousand or so names — not one allocation or more per node, as adding
// the nodes one at a time did (7546 on c5315's working copy).
func TestSweepAllocsBounded(t *testing.T) {
	for _, spec := range append(bench.Suite(), bench.Extras()...) {
		a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
		if err != nil {
			t.Fatal(err)
		}
		w, err := core.NewWorking(a, core.FullAssignment(a))
		if err != nil {
			t.Fatal(err)
		}
		limit := 16 + float64(len(w.C.Nodes))/256
		if n := testing.AllocsPerRun(3, func() { w.C.Sweep() }); n > limit {
			t.Errorf("%s: Sweep of a %d-node working copy made %v allocations, want ≤ %v", spec.Name, len(w.C.Nodes), n, limit)
		}
	}
}
