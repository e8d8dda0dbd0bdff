package core

import (
	"repro/internal/circuit"
	"repro/internal/logic"
)

// This file reconstructs the paper's modification lookup table ("For every
// possible pair of gates that can be considered a fingerprint location ...
// a structural change must be proposed", §III-C). The printed table was
// omitted from the paper (its Table II slot holds the results table), so the
// catalogue is derived from first principles:
//
// Let cv be the primary gate's controlling value (0 for AND/NAND, 1 for
// OR/NOR). The FFC of Y is unobservable exactly when the trigger X = cv, so
// a modification may change the cone's function freely under X = cv but must
// be the identity under X = ¬cv:
//
//   - Appending a literal L to a target gate with identity value id
//     (AND/NAND: 1, OR/NOR: 0) is safe iff L = id whenever X = ¬cv, i.e.
//     L = X when ¬cv == id, else L = X'.
//   - A single-input target INV(a) becomes NAND(a, L) with L = 1 at ¬cv, or
//     NOR(a, L') with L' = 0 at ¬cv — two variants. BUF(a) similarly becomes
//     AND(a, L) or OR(a, L').
//   - Fig. 5 reroute: when X is driven by a gate T whose output value ¬cv
//     forces all of T's inputs to a known value f (T=AND/NAND force 1 at
//     output 1/0 respectively; T=OR/NOR force 0), any subset of T's inputs
//     (size ≤ 2, giving the paper's n(n+1)/2 count) can replace X, with each
//     input u contributing literal u when f == id, else u'.

// litValueAtNonTrigger returns the literal polarity needed so that the added
// literal equals `identity` whenever the base signal equals baseVal.
func litNeg(baseVal, identity bool) bool { return baseVal != identity }

// variantsFor enumerates the legal variants for target gate g of location
// loc, applying library-width and duplicate-pin feasibility checks.
// The variants are carved out of the scanner's variant buffer.
func (s *scanner) variantsFor(loc Location, g circuit.NodeID) []Variant {
	a := s.a
	c := a.Circuit
	gd := &c.Nodes[g]
	cv := loc.TriggerValue
	nonTrigger := !cv // value of X under which the cone must be unchanged

	v0 := len(s.vars)
	addIfFeasible := func(v Variant) {
		// Width check: the modified gate needs a library cell. The dense
		// hasCell table mirrors lib.Has; the per-variant map lookup was hot
		// in the scan profile.
		newFanin := len(gd.Fanin) + len(v.Lits)
		if ht := s.hasCell[v.NewGateKind]; newFanin >= len(ht) || !ht[newFanin] {
			return
		}
		// Duplicate-pin check: non-inverted literals must not repeat an
		// existing fanin or each other (inverted literals become fresh
		// inverter nodes, which can never collide). Fanin lists are
		// library-width bounded, so linear scans beat a map here.
		for k, l := range v.Lits {
			if l.Neg {
				continue
			}
			for _, f := range gd.Fanin {
				if f == l.Node {
					return
				}
			}
			for _, m := range v.Lits[:k] {
				if !m.Neg && m.Node == l.Node {
					return
				}
			}
		}
		// Self-reference check: a literal must not be the target itself
		// (cannot happen for the trigger, which lies outside the cone, but
		// guard reroute sources).
		for _, l := range v.Lits {
			if l.Node == g {
				return
			}
		}
		s.vars = append(s.vars, v)
	}

	switch {
	case gd.Kind.HasControllingValue(): // AND/NAND/OR/NOR target
		id, _ := gd.Kind.IdentityValue()
		base := Variant{
			Kind:        AddLiteral,
			NewGateKind: gd.Kind,
			Lits:        s.lit1(Lit{Node: loc.Trigger, Neg: litNeg(nonTrigger, id)}),
		}
		addIfFeasible(base)
		if a.Options.AllowReroute {
			s.rerouteVariants(loc, gd.Kind, id, addIfFeasible)
		}
	case gd.Kind == logic.Inv:
		// INV(a) → NAND(a, L) with L = 1 at non-trigger.
		addIfFeasible(Variant{
			Kind:        ConvertSingle,
			NewGateKind: logic.Nand,
			Lits:        s.lit1(Lit{Node: loc.Trigger, Neg: litNeg(nonTrigger, true)}),
		})
		// INV(a) → NOR(a, L) with L = 0 at non-trigger.
		addIfFeasible(Variant{
			Kind:        ConvertSingle,
			NewGateKind: logic.Nor,
			Lits:        s.lit1(Lit{Node: loc.Trigger, Neg: litNeg(nonTrigger, false)}),
		})
	case gd.Kind == logic.Buf:
		addIfFeasible(Variant{
			Kind:        ConvertSingle,
			NewGateKind: logic.And,
			Lits:        s.lit1(Lit{Node: loc.Trigger, Neg: litNeg(nonTrigger, true)}),
		})
		addIfFeasible(Variant{
			Kind:        ConvertSingle,
			NewGateKind: logic.Or,
			Lits:        s.lit1(Lit{Node: loc.Trigger, Neg: litNeg(nonTrigger, false)}),
		})
	}
	return s.vars[v0:len(s.vars):len(s.vars)]
}

// rerouteVariants builds the Fig. 5 alternatives: literals drawn from the
// inputs of the trigger's driver gate T, valid when X = ¬cv forces all of
// T's inputs to a known value. Each one goes to add, in catalogue order.
func (s *scanner) rerouteVariants(loc Location, targetKind logic.Kind, targetIdentity bool, add func(Variant)) {
	c := s.a.Circuit
	t := loc.Trigger
	tn := &c.Nodes[t]
	if tn.IsPI || !tn.Kind.HasControllingValue() {
		return
	}
	nonTrigger := !loc.TriggerValue
	// Output value of T that forces all its inputs: the complement of its
	// controlling-value product. AND outputs 1 / NAND outputs 0 only when
	// all inputs are 1; OR outputs 0 / NOR outputs 1 only when all inputs
	// are 0.
	var forcedInput, forcingOutput bool
	switch tn.Kind {
	case logic.And:
		forcingOutput, forcedInput = true, true
	case logic.Nand:
		forcingOutput, forcedInput = false, true
	case logic.Or:
		forcingOutput, forcedInput = false, false
	case logic.Nor:
		forcingOutput, forcedInput = true, false
	}
	if forcingOutput != nonTrigger {
		return // X = ¬cv does not pin T's inputs; Fig. 5 inapplicable
	}
	neg := litNeg(forcedInput, targetIdentity)
	ins := tn.Fanin
	// Singles, then pairs: n + n(n−1)/2 = n(n+1)/2 variants (§III-C).
	for i, u := range ins {
		add(Variant{
			Kind:        Reroute,
			NewGateKind: targetKind,
			Lits:        s.lit1(Lit{Node: u, Neg: neg}),
		})
		for _, w := range ins[i+1:] {
			if w == u {
				continue
			}
			add(Variant{
				Kind:        Reroute,
				NewGateKind: targetKind,
				Lits:        s.lit2(Lit{Node: u, Neg: neg}, Lit{Node: w, Neg: neg}),
			})
		}
	}
}
