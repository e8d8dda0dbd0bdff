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
func Extract(a *Analysis, copy circuit.Netlist) (Assignment, error) {
	asg, _, err := extract(a, copy, true)
	return asg, err
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
// Extract succeeds exactly when the tampered list is empty, and then
// returns the same assignment.
//
// The copy may be a built circuit or a staged netlist (circuit.Staged):
// extraction reads only the target gates, their fanin names and the
// inputs of helper inverters.
func ExtractTolerant(a *Analysis, copy circuit.Netlist) (Assignment, []SlotRef, error) {
	return extract(a, copy, false)
}

// extract is the one extractor behind Extract and ExtractTolerant; strict
// fails on the first slot ExtractTolerant would mark Tampered.
func extract(a *Analysis, cp circuit.Netlist, strict bool) (Assignment, []SlotRef, error) {
	asg := EmptyAssignment(a)
	var tampered []SlotRef
	var pins []pin
	for i := range a.Locations {
		loc := &a.Locations[i]
		for j := range loc.Targets {
			v, err := extractTarget(a, cp, &loc.Targets[j], &pins)
			switch {
			case err == nil:
				asg[i][j] = v
			case strict:
				return nil, nil, fmt.Errorf("core: location %d (primary %q) target %d: %w",
					i, a.Circuit.Nodes[loc.Primary].Name, j, err)
			default:
				asg[i][j] = Tampered
				tampered = append(tampered, SlotRef{Loc: i, Target: j})
			}
		}
	}
	return asg, tampered, nil
}

// pin is one input of a copy's target gate as the extractor compares it:
// the name of the signal it reads and, when that signal is a helper
// inverter — an INV absent from the original design — the name of the
// signal the inverter reads.
type pin struct{ name, inverts string }

// extractTarget classifies one target gate in the copy: -1 (unmodified) or
// the matching variant index. The copy gate's pins are resolved once, into
// *pins, and then compared with the original form and each variant.
func extractTarget(a *Analysis, cp circuit.Netlist, tgt *Target, pins *[]pin) (int, error) {
	orig := &a.Circuit.Nodes[tgt.Gate]
	id, ok := cp.Lookup(orig.Name)
	if !ok {
		return 0, fmt.Errorf("gate %q missing from copy", orig.Name)
	}
	kind, fanin, ok := cp.Gate(id)
	if !ok {
		return 0, fmt.Errorf("gate %q is a PI in the copy", orig.Name)
	}
	got := (*pins)[:0]
	for _, f := range fanin {
		p := pin{name: cp.NodeName(f)}
		if k, in, ok := cp.Gate(f); ok && k == logic.Inv {
			if _, inOriginal := a.Circuit.Lookup(p.name); !inOriginal {
				p.inverts = cp.NodeName(in[0])
			}
		}
		got = append(got, p)
	}
	*pins = got
	if matchGate(a, got, kind, orig.Kind, orig.Fanin, nil) {
		return -1, nil
	}
	for v := range tgt.Variants {
		variant := &tgt.Variants[v]
		if matchGate(a, got, kind, variant.NewGateKind, orig.Fanin, variant.Lits) {
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
	v, err := extractTarget(a, cp, &a.Locations[loc].Targets[tgt], new([]pin))
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

// matchGate reports whether a copy gate of kind gotKind with pins got has
// kind `kind` and reads exactly the original fanin signals plus the given
// extra literals, a negative literal through a helper inverter. A gate has
// a handful of pins, so each pin claims an unused expected signal by a
// linear scan, positive readings first.
func matchGate(a *Analysis, got []pin, gotKind, kind logic.Kind, origFanin []circuit.NodeID, lits []Lit) bool {
	if gotKind != kind || len(got) != len(origFanin)+len(lits) {
		return false
	}
	var buf [16]bool
	used := buf[:0]
	if len(got) > len(buf) {
		used = make([]bool, len(got))
	} else {
		used = buf[:len(got)]
	}
	// want returns expected signal k's name and whether it is read negated.
	want := func(k int) (string, bool) {
		if k < len(origFanin) {
			return a.Circuit.Nodes[origFanin[k]].Name, false
		}
		l := lits[k-len(origFanin)]
		return a.Circuit.Nodes[l.Node].Name, l.Neg
	}
	claim := func(name string, neg bool) bool {
		for k := range used {
			if w, n := want(k); !used[k] && n == neg && w == name {
				used[k] = true
				return true
			}
		}
		return false
	}
	for _, p := range got {
		if !claim(p.name, false) && (p.inverts == "" || !claim(p.inverts, true)) {
			return false
		}
	}
	return true
}
