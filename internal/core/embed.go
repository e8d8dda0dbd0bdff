package core

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Assignment selects, for every location and each of its targets, which
// variant to apply: Assignment[loc][target] is a variant index into
// Targets[target].Variants, or -1 for "leave unmodified". An Assignment is
// the structural form of a fingerprint; bits.go converts to and from
// integers.
type Assignment [][]int

// EmptyAssignment returns the all-unmodified assignment for a.
// The rows share one slab, each capped at its length.
func EmptyAssignment(a *Analysis) Assignment {
	asg := make(Assignment, len(a.Locations))
	n := 0
	for i := range a.Locations {
		n += len(a.Locations[i].Targets)
	}
	slab := make([]int, n)
	for k := range slab {
		slab[k] = -1
	}
	for i := range a.Locations {
		n := len(a.Locations[i].Targets)
		asg[i], slab = slab[:n:n], slab[n:]
	}
	return asg
}

// FullAssignment returns the paper's greedy "maximum fingerprint"
// configuration: at every location, the canonical (deepest) target receives
// its first variant; other targets stay unmodified. This is the
// configuration whose overhead Table II reports.
func FullAssignment(a *Analysis) Assignment {
	asg := EmptyAssignment(a)
	for i := range a.Locations {
		if len(a.Locations[i].Targets) > 0 {
			asg[i][0] = 0
		}
	}
	return asg
}

// Clone deep-copies an assignment.
func (asg Assignment) Clone() Assignment {
	out := make(Assignment, len(asg))
	for i := range asg {
		out[i] = append([]int(nil), asg[i]...)
	}
	return out
}

// CountActive returns the number of applied modifications.
func (asg Assignment) CountActive() int {
	n := 0
	for i := range asg {
		for _, v := range asg[i] {
			if v >= 0 {
				n++
			}
		}
	}
	return n
}

// validate checks the assignment's shape and variant indices against a.
func (asg Assignment) validate(a *Analysis) error {
	if len(asg) != len(a.Locations) {
		return fmt.Errorf("core: assignment has %d locations, analysis %d", len(asg), len(a.Locations))
	}
	for i := range asg {
		if len(asg[i]) != len(a.Locations[i].Targets) {
			return fmt.Errorf("core: assignment loc %d has %d targets, analysis %d", i, len(asg[i]), len(a.Locations[i].Targets))
		}
		for j, v := range asg[i] {
			if v < -1 || v >= len(a.Locations[i].Targets[j].Variants) {
				return fmt.Errorf("core: assignment loc %d target %d: variant %d out of range", i, j, v)
			}
		}
	}
	return nil
}

// AppliedMod records one applied modification so it can be toggled.
type AppliedMod struct {
	Loc, Target, Variant int
	// pins are the nodes actually wired into the target gate, one per
	// literal (the literal's source, or a helper inverter).
	pins []circuit.NodeID
	// invs are the helper inverter nodes (None where the literal was
	// positive). Inverters persist for the lifetime of a Working; while a
	// mod is disabled they are parked on a constant so they neither load
	// the trigger nor alter function, and Snapshot sweeps them away.
	invs     []circuit.NodeID
	origKind logic.Kind
	active   bool
}

// Working is a mutable fingerprinted circuit supporting cheap
// enable/disable of individual modifications — the engine under the
// reactive overhead-reduction heuristic (§III-D, §IV-B).
type Working struct {
	C        *circuit.Circuit
	Analysis *Analysis
	Mods     []AppliedMod

	park circuit.NodeID // Const0 node inverters are parked on when disabled
}

// NewWorking clones the analysed circuit and applies the assignment,
// returning a Working with every selected modification active.
func NewWorking(a *Analysis, asg Assignment) (*Working, error) {
	if err := asg.validate(a); err != nil {
		return nil, err
	}
	w := &Working{C: a.Circuit.Clone(), Analysis: a, park: circuit.None}
	for i := range asg {
		for j, v := range asg[i] {
			if v < 0 {
				continue
			}
			if err := w.apply(i, j, v); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *Working) ensurePark() (circuit.NodeID, error) {
	if w.park != circuit.None {
		return w.park, nil
	}
	id, err := w.C.AddGate(w.C.FreshName("fp_park"), logic.Const0)
	if err != nil {
		return circuit.None, err
	}
	w.park = id
	return id, nil
}

// apply wires variant v of target j of location i into w.C and records it.
func (w *Working) apply(i, j, v int) error {
	loc := &w.Analysis.Locations[i]
	tgt := &loc.Targets[j]
	variant := &tgt.Variants[v]
	g := tgt.Gate
	mod := AppliedMod{Loc: i, Target: j, Variant: v, origKind: w.C.Nodes[g].Kind, active: true}

	for _, lit := range variant.Lits {
		src := lit.Node
		inv := circuit.None
		if lit.Neg {
			name := w.C.FreshName("fp_" + w.C.Nodes[lit.Node].Name + "_n")
			id, err := w.C.AddGate(name, logic.Inv, lit.Node)
			if err != nil {
				return fmt.Errorf("core: apply mod %d/%d/%d: %w", i, j, v, err)
			}
			inv = id
			src = id
		}
		mod.pins = append(mod.pins, src)
		mod.invs = append(mod.invs, inv)
	}
	if err := w.connect(g, variant, mod.pins); err != nil {
		return fmt.Errorf("core: apply mod %d/%d/%d: %w", i, j, v, err)
	}
	mModsEmbedded.Inc()
	mVariantKind[variant.Kind].Inc()
	w.Mods = append(w.Mods, mod)
	return nil
}

func (w *Working) connect(g circuit.NodeID, variant *Variant, pins []circuit.NodeID) error {
	switch variant.Kind {
	case ConvertSingle:
		return w.C.ConvertGate(g, variant.NewGateKind, pins[0])
	default:
		for _, p := range pins {
			if err := w.C.AddFanin(g, p); err != nil {
				return err
			}
		}
		return nil
	}
}

// Disable detaches modification m (index into Mods) from the netlist; the
// target gate reverts to its original form and helper inverters are parked.
func (w *Working) Disable(m int) error {
	mod := &w.Mods[m]
	if !mod.active {
		return nil
	}
	loc := &w.Analysis.Locations[mod.Loc]
	tgt := &loc.Targets[mod.Target]
	variant := &tgt.Variants[mod.Variant]
	g := tgt.Gate
	switch variant.Kind {
	case ConvertSingle:
		if err := w.C.UnconvertGate(g, mod.origKind, mod.pins[0]); err != nil {
			return err
		}
	default:
		for _, p := range mod.pins {
			if err := w.C.RemoveFanin(g, p); err != nil {
				return err
			}
		}
	}
	for _, inv := range mod.invs {
		if inv == circuit.None {
			continue
		}
		park, err := w.ensurePark()
		if err != nil {
			return err
		}
		if err := w.C.ReplaceFanin(inv, 0, park); err != nil {
			return err
		}
	}
	mod.active = false
	return nil
}

// Enable re-attaches a previously disabled modification.
func (w *Working) Enable(m int) error {
	mod := &w.Mods[m]
	if mod.active {
		return nil
	}
	loc := &w.Analysis.Locations[mod.Loc]
	tgt := &loc.Targets[mod.Target]
	variant := &tgt.Variants[mod.Variant]
	// Un-park inverters first so pins carry the right literal.
	for k, inv := range mod.invs {
		if inv == circuit.None {
			continue
		}
		if err := w.C.ReplaceFanin(inv, 0, variant.Lits[k].Node); err != nil {
			return err
		}
	}
	if err := w.connect(tgt.Gate, variant, mod.pins); err != nil {
		return err
	}
	mod.active = true
	return nil
}

// Clone returns an independent copy of the working circuit sharing the
// read-only Analysis: the netlist is deep-copied and every AppliedMod's
// state (pins, helper inverters, active flag, park node) carries over, so
// toggles on the clone never touch the original. The parallel reactive
// heuristic clones one Working per trial worker.
func (w *Working) Clone() *Working {
	out := &Working{
		C:        w.C.Clone(),
		Analysis: w.Analysis,
		Mods:     make([]AppliedMod, len(w.Mods)),
		park:     w.park,
	}
	for i := range w.Mods {
		m := w.Mods[i]
		m.pins = append([]circuit.NodeID(nil), m.pins...)
		m.invs = append([]circuit.NodeID(nil), m.invs...)
		out.Mods[i] = m
	}
	return out
}

// ActiveCount returns the number of enabled modifications.
func (w *Working) ActiveCount() int {
	n := 0
	for i := range w.Mods {
		if w.Mods[i].active {
			n++
		}
	}
	return n
}

// Active reports whether modification m is enabled.
func (w *Working) Active(m int) bool { return w.Mods[m].active }

// ModPins returns the nodes wired into modification m's target gate (the
// literal sources or their helper inverters). Exposed for the constraint
// heuristics' critical-path filtering.
func (w *Working) ModPins(m int) []circuit.NodeID { return w.Mods[m].pins }

// ModAffected returns every node whose kind, fanin list or fanout set
// changes when modification m is toggled: the target gate, the literal
// source signals, the helper inverters and the parking constant. This is
// exactly the set an incremental timing engine must be told about
// (sta.Incremental.Update).
func (w *Working) ModAffected(m int) []circuit.NodeID {
	mod := &w.Mods[m]
	loc := &w.Analysis.Locations[mod.Loc]
	tgt := &loc.Targets[mod.Target]
	variant := &tgt.Variants[mod.Variant]
	out := make([]circuit.NodeID, 0, 2+3*len(mod.pins))
	out = append(out, tgt.Gate)
	out = append(out, mod.pins...)
	for k, inv := range mod.invs {
		if inv != circuit.None {
			out = append(out, inv, variant.Lits[k].Node)
		}
	}
	if w.park != circuit.None {
		out = append(out, w.park)
	}
	return out
}

// Assignment returns the assignment corresponding to the currently active
// modifications.
func (w *Working) Assignment() Assignment {
	asg := EmptyAssignment(w.Analysis)
	for i := range w.Mods {
		m := &w.Mods[i]
		if m.active {
			asg[m.Loc][m.Target] = m.Variant
		}
	}
	return asg
}

// Snapshot returns a swept, validated copy of the working netlist with only
// the active modifications present (parked inverters removed). For a fresh
// NewWorking(a, asg) it is the copy Embed(a, asg) builds in one pass, and
// the tests use it as Embed's oracle.
func (w *Working) Snapshot() (*circuit.Circuit, error) {
	swept, _ := w.C.Sweep()
	if err := swept.Validate(); err != nil {
		return nil, err
	}
	return swept, nil
}
