package core

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Extract recovers the fingerprint assignment from a (possibly pirated and
// re-copied) instance by structural comparison against the original design,
// implementing the designer-side detection of §III-E: "the designer can
// compare the fingerprinted IP with the design that does not have any
// fingerprint to check whether and what change has occurred in each
// fingerprint location".
//
// Gates are matched by name; helper inverters introduced at embed time are
// matched structurally (an INV in the copy whose input is the expected
// literal source), so the copy's generated names do not matter — the
// fingerprint survives renaming of the helper nodes, and any whole-netlist
// copy preserves it (the heredity requirement).
func Extract(a *Analysis, copy *circuit.Circuit) (Assignment, error) {
	asg := EmptyAssignment(a)
	for i := range a.Locations {
		loc := &a.Locations[i]
		for j := range loc.Targets {
			v, err := extractTarget(a, copy, loc, j)
			if err != nil {
				return nil, fmt.Errorf("core: location %d (primary %q) target %d: %w",
					i, a.Circuit.Nodes[loc.Primary].Name, j, err)
			}
			asg[i][j] = v
		}
	}
	return asg, nil
}

// Tampered marks a slot whose gate matches neither the original form nor
// any catalogued variant in ExtractTolerant results.
const Tampered = -2

// SlotRef identifies one (location, target) modification slot.
type SlotRef struct {
	Loc, Target int
}

// ExtractTolerant is Extract for adversarial settings (§III-E): slots whose
// gate is missing or matches nothing are reported as Tampered instead of
// failing, alongside the list of tampered slots. A collusion attacker who
// rewires detected fingerprint sites produces exactly such slots; the
// registry's score trace (internal/registry) counts them for nobody.
func ExtractTolerant(a *Analysis, copy *circuit.Circuit) (Assignment, []SlotRef, error) {
	asg := EmptyAssignment(a)
	var tampered []SlotRef
	for i := range a.Locations {
		loc := &a.Locations[i]
		for j := range loc.Targets {
			v, err := extractTarget(a, copy, loc, j)
			if err != nil {
				asg[i][j] = Tampered
				tampered = append(tampered, SlotRef{Loc: i, Target: j})
				continue
			}
			asg[i][j] = v
		}
	}
	return asg, tampered, nil
}

// extractTarget classifies one target gate in the copy: -1 (unmodified) or
// the matching variant index.
func extractTarget(a *Analysis, cp *circuit.Circuit, loc *Location, j int) (int, error) {
	tgt := &loc.Targets[j]
	orig := &a.Circuit.Nodes[tgt.Gate]
	id, ok := cp.Lookup(orig.Name)
	if !ok {
		return 0, fmt.Errorf("gate %q missing from copy", orig.Name)
	}
	got := &cp.Nodes[id]
	if got.IsPI {
		return 0, fmt.Errorf("gate %q is a PI in the copy", orig.Name)
	}

	// Resolve the copy's fanin to original-circuit signal names, treating a
	// single-fanin INV over a name as "negated name" when the INV itself is
	// not an original node.
	if matchGate(a, cp, got, orig.Kind, orig.Fanin, nil) {
		return -1, nil
	}
	for v := range tgt.Variants {
		variant := &tgt.Variants[v]
		if matchGate(a, cp, got, variant.NewGateKind, orig.Fanin, variant.Lits) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("gate %q matches neither the original nor any catalogued variant (tampered?)", orig.Name)
}

// Strip reverts the modification at slot (loc, tgt) in a copy, restoring
// the gate's original kind and fanin — the adversary's "remove the
// suspicious wire" move used by the robustness experiments. It is a no-op
// when the slot is unmodified and an error when the gate is missing or in
// an unrecognised state.
func Strip(a *Analysis, cp *circuit.Circuit, loc, tgt int) error {
	if loc < 0 || loc >= len(a.Locations) || tgt < 0 || tgt >= len(a.Locations[loc].Targets) {
		return fmt.Errorf("core: Strip(%d, %d): slot out of range", loc, tgt)
	}
	v, err := extractTarget(a, cp, &a.Locations[loc], tgt)
	if err != nil {
		return err
	}
	if v < 0 {
		return nil // already unmodified
	}
	target := &a.Locations[loc].Targets[tgt]
	orig := &a.Circuit.Nodes[target.Gate]
	gid, ok := cp.Lookup(orig.Name)
	if !ok {
		return fmt.Errorf("core: Strip: gate %q missing", orig.Name)
	}
	// Desired fanin: the original pins, resolved by name in the copy.
	fanin := make([]circuit.NodeID, len(orig.Fanin))
	for i, f := range orig.Fanin {
		id, ok := cp.Lookup(a.Circuit.Nodes[f].Name)
		if !ok {
			return fmt.Errorf("core: Strip: signal %q missing", a.Circuit.Nodes[f].Name)
		}
		fanin[i] = id
	}
	return cp.RewireGate(gid, orig.Kind, fanin)
}

// matchGate reports whether the copy gate `got` has kind `kind` and reads
// exactly the original fanin signals plus the given extra literals.
func matchGate(a *Analysis, cp *circuit.Circuit, got *circuit.Node, kind logic.Kind, origFanin []circuit.NodeID, lits []Lit) bool {
	if got.Kind != kind {
		return false
	}
	if len(got.Fanin) != len(origFanin)+len(lits) {
		return false
	}
	// Expected positive pins by name.
	want := make(map[string]int, len(origFanin))
	for _, f := range origFanin {
		want[a.Circuit.Nodes[f].Name]++
	}
	// Negative literals expected as helper inverters.
	negWant := make(map[string]int, len(lits))
	for _, l := range lits {
		name := a.Circuit.Nodes[l.Node].Name
		if l.Neg {
			negWant[name]++
		} else {
			want[name]++
		}
	}
	for _, f := range got.Fanin {
		fn := &cp.Nodes[f]
		if want[fn.Name] > 0 {
			want[fn.Name]--
			continue
		}
		// Helper inverter: an INV node absent from the original design
		// whose input is the expected literal source.
		if fn.Kind == logic.Inv && !fn.IsPI {
			if _, inOriginal := a.Circuit.Lookup(fn.Name); !inOriginal {
				srcName := cp.Nodes[fn.Fanin[0]].Name
				if negWant[srcName] > 0 {
					negWant[srcName]--
					continue
				}
			}
		}
		return false
	}
	for _, n := range want {
		if n != 0 {
			return false
		}
	}
	for _, n := range negWant {
		if n != 0 {
			return false
		}
	}
	return true
}
