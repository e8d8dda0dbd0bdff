package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/registry"
)

// E14 measures tracing robustness against tampering (extension): an
// adversary strips an increasing number of fingerprint modifications from
// a pirated copy; the designer traces it with the marking-assumption
// scorer. The paper's claim "as long as the collusion attacker does not
// remove all the fingerprint information, all the copies ... can be
// traced" generalises here to single-copy tampering: top-1 tracing should
// hold until almost all modifications are gone.

// E14Point is the tracing success rate at one tampering level.
type E14Point struct {
	Stripped int
	// Top1 is the fraction of trials where the true buyer ranked first
	// (strictly above every innocent buyer).
	Top1   float64
	Trials int
}

// RunE14 runs the robustness sweep on one benchmark circuit with nBuyers
// registered buyers and the given strip levels. Buyer registration draws
// from the base seed; each strip level then fans out onto the worker pool
// with its own derived rng (DeriveSeed over the level index), so the trial
// outcomes depend only on (seed, circuit, level) — not on how many levels
// run concurrently.
func RunE14(circuitName string, nBuyers, trials int, stripLevels []int, lib *cell.Library, seed int64, jobs int) ([]E14Point, error) {
	spec, err := bench.ByName(circuitName)
	if err != nil {
		return nil, err
	}
	c := spec.Build()
	a, err := core.Analyze(c, core.DefaultOptions(lib))
	if err != nil {
		return nil, err
	}
	n := a.BitCapacity()
	if n < 8 {
		return nil, fmt.Errorf("experiments: %s has only %d locations", circuitName, n)
	}
	rng := rand.New(rand.NewSource(seed))

	// Register buyers with random binary fingerprints.
	reg := registry.New(a)
	type buyer struct {
		name string
		asg  core.Assignment
	}
	buyers := make([]buyer, nBuyers)
	for i := range buyers {
		bits := make([]bool, n)
		for j := range bits {
			bits[j] = rng.Intn(2) == 1
		}
		asg, err := a.AssignmentFromBits(bits)
		if err != nil {
			return nil, err
		}
		v, err := a.IntFromAssignment(asg)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("buyer%02d", i)
		if err := reg.Adopt(name, v.String()); err != nil {
			return nil, err
		}
		buyers[i] = buyer{name, asg}
	}

	return par.Map(len(stripLevels), jobs, func(li int) (E14Point, error) {
		strip := stripLevels[li]
		rng := rand.New(rand.NewSource(DeriveSeed(seed, circuitName, 1+li)))
		point := E14Point{Stripped: strip, Trials: trials}
		wins := 0
		for trial := 0; trial < trials; trial++ {
			b := buyers[rng.Intn(len(buyers))]
			cp, err := core.Embed(a, b.asg)
			if err != nil {
				return E14Point{}, err
			}
			// Strip `strip` random modified slots.
			var modified [][2]int
			for loc := range b.asg {
				for ti, v := range b.asg[loc] {
					if v >= 0 {
						modified = append(modified, [2]int{loc, ti})
					}
				}
			}
			rng.Shuffle(len(modified), func(i, j int) { modified[i], modified[j] = modified[j], modified[i] })
			remaining := b.asg.Clone()
			for k := 0; k < strip && k < len(modified); k++ {
				if err := core.Strip(a, cp, modified[k][0], modified[k][1]); err != nil {
					return E14Point{}, err
				}
				remaining[modified[k][0]][modified[k][1]] = -1
			}
			// Requirement 1 must survive tampering: the stripped copy still
			// carries a catalogued assignment, so one incremental solve on
			// the shared session proves it equivalent to the master.
			verdict, err := a.SharedVerifier().Verify(remaining)
			if err != nil {
				return E14Point{}, err
			}
			if !verdict.Equivalent {
				return E14Point{}, fmt.Errorf("experiments: stripped copy of %s inequivalent on PO %q", b.name, verdict.PO)
			}
			scores, err := reg.TraceScores(a, cp)
			if err != nil {
				return E14Point{}, err
			}
			// Top-1: the true buyer strictly outranks every other buyer on
			// the composite (present-fraction, all-slot fraction) ordering
			// TraceScores already applies.
			if len(scores) > 0 && scores[0].Name == b.name {
				strict := true
				for _, s := range scores[1:] {
					if s.Fraction() == scores[0].Fraction() && s.FractionAll() == scores[0].FractionAll() {
						strict = false
						break
					}
				}
				if strict {
					wins++
				}
			}
		}
		point.Top1 = float64(wins) / float64(trials)
		return point, nil
	})
}

// FormatE14 renders the robustness curve.
func FormatE14(circuitName string, points []E14Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tracing robustness on %s (top-1 accuracy vs stripped modifications)\n", circuitName)
	fmt.Fprintf(&b, "%-10s %-8s %-8s\n", "stripped", "top-1", "trials")
	b.WriteString(strings.Repeat("-", 30) + "\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %-8.2f %-8d\n", p.Stripped, p.Top1, p.Trials)
	}
	return b.String()
}
