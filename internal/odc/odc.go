// Package odc computes local Observability Don't Care (ODC) conditions for
// library gates, the analytical heart of the paper's fingerprinting method.
//
// For a function F and input x, the paper's Eq. (1) defines
//
//	ODC_x = (∂F/∂x)' = (F_x ⊕ F_x')'
//
// — the set of conditions on the *other* inputs under which the value of x
// cannot be observed at F's output. For the controlling-value gates in the
// standard-cell library this specialises to a simple rule:
//
//	AND/NAND: ODC_x = OR  of (y = 0) over the other inputs y
//	OR/NOR:   ODC_x = OR  of (y = 1) over the other inputs y
//	XOR/XNOR, Buf, Inv: ODC_x = 0 (every input always observable locally)
//
// The package exposes both the symbolic rule (which gates have non-zero ODC,
// what the trigger value is) and a semantic evaluator used by property tests
// to validate the rule against Eq. (1) by enumeration.
package odc

import (
	"fmt"
	"math/bits"

	"repro/internal/aig"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

// TriggerValue returns the value another input of a kind-k gate must take to
// make a given pin unobservable (the controlling value of k), with ok=false
// when the kind has no non-trivial local ODC.
//
// In fingerprinting terms: the "ODC trigger signal" X of a primary gate of
// kind k activates the ODC condition exactly when X = TriggerValue(k)
// (Definition 2 of the paper).
func TriggerValue(k logic.Kind) (v bool, ok bool) {
	return k.ControllingValue()
}

// HasLocalODC reports whether a gate of kind k with the given fanin count
// has a non-zero ODC condition with respect to at least one input. A
// controlling-value gate needs ≥2 inputs for one input to mask another.
func HasLocalODC(k logic.Kind, fanin int) bool {
	return k.ODCCapable() && fanin >= 2
}

// LocalODC evaluates the local ODC condition of pin `pin` of a gate of kind
// k under the given input assignment: true when the pin's value cannot be
// observed at the gate output (flipping it leaves the output unchanged).
// This is the direct semantic form of the paper's Eq. (1), valid for any
// gate kind.
func LocalODC(k logic.Kind, in []bool, pin int) (bool, error) {
	if pin < 0 || pin >= len(in) {
		return false, fmt.Errorf("odc: pin %d out of range (%d inputs)", pin, len(in))
	}
	a := append([]bool(nil), in...)
	b := append([]bool(nil), in...)
	a[pin] = false
	b[pin] = true
	return k.Eval(a) == k.Eval(b), nil
}

// RuleODC evaluates the closed-form controlling-value rule: pin is locally
// unobservable iff some other input carries the controlling value. It must
// agree with LocalODC on controlling-value gates (property-tested), and is
// what the fingerprint analyzer uses.
func RuleODC(k logic.Kind, in []bool, pin int) (bool, error) {
	if pin < 0 || pin >= len(in) {
		return false, fmt.Errorf("odc: pin %d out of range (%d inputs)", pin, len(in))
	}
	cv, ok := k.ControllingValue()
	if !ok {
		return false, nil
	}
	for i, b := range in {
		if i != pin && b == cv {
			return true, nil
		}
	}
	return false, nil
}

// PinODC describes the local ODC condition of one gate pin in a circuit:
// the pin is unobservable whenever any of the Maskers carries MaskValue.
type PinODC struct {
	Gate      circuit.NodeID
	Pin       int
	Maskers   []circuit.NodeID // the other fanin signals of the gate
	MaskValue bool             // the controlling value of the gate kind
}

// GateODCs returns the local ODC description of every pin of gate g that has
// a non-zero condition (nil for gates without local ODCs).
func GateODCs(c *circuit.Circuit, g circuit.NodeID) []PinODC {
	nd := &c.Nodes[g]
	if nd.IsPI || !HasLocalODC(nd.Kind, len(nd.Fanin)) {
		return nil
	}
	cv, _ := nd.Kind.ControllingValue()
	out := make([]PinODC, 0, len(nd.Fanin))
	for pin := range nd.Fanin {
		maskers := make([]circuit.NodeID, 0, len(nd.Fanin)-1)
		for i, f := range nd.Fanin {
			if i != pin {
				maskers = append(maskers, f)
			}
		}
		out = append(out, PinODC{Gate: g, Pin: pin, Maskers: maskers, MaskValue: cv})
	}
	return out
}

// ObservabilityStats summarises how much of a circuit is locally maskable:
// the count of ODC-capable gates and of total maskable pins. The paper's
// claim "ODC conditions exist almost everywhere in any combinational
// circuit" is quantified by these numbers in the experiments.
type ObservabilityStats struct {
	ODCGates     int // gates with ≥1 non-zero-ODC pin
	MaskablePins int // total pins with non-zero local ODC
	TotalGates   int
}

// Stats scans the circuit and tallies local ODC availability.
func Stats(c *circuit.Circuit) ObservabilityStats {
	var s ObservabilityStats
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if nd.IsPI || nd.Kind == logic.Const0 || nd.Kind == logic.Const1 {
			continue
		}
		s.TotalGates++
		if HasLocalODC(nd.Kind, len(nd.Fanin)) {
			s.ODCGates++
			s.MaskablePins += len(nd.Fanin)
		}
	}
	return s
}

// MaskedFraction measures, by bit-parallel simulation, how often each
// ODC-capable gate's deepest pin is locally masked across random input
// patterns: the empirical strength of the paper's claim that "ODC
// conditions exist almost everywhere in any combinational circuit". The
// return value maps gate NodeID → fraction of patterns with the pin masked
// (only gates with non-trivial local ODCs appear).
//
// Stimulus comes from sim.SharedRandom and simulation runs on the packed
// AIG kernel (aig.ViewFor), so repeated calls with the same
// circuit/seed/shape reuse both the vectors and the decomposition. The AIG
// computes the same Boolean function per node, so the fractions equal those
// read off the gate-level reference (sim.Run). It fails only when the
// circuit cannot be decomposed, i.e. has a cycle.
//
// Each masker pin's value stream is read through its AIG edge with an XOR
// mask folding together the edge complement and the gate's
// controlling-value polarity, so the inner loop is mask-or-popcount with no
// branches.
func MaskedFraction(c *circuit.Circuit, nWords int, seed int64) (map[circuit.NodeID]float64, error) {
	v, err := aig.ViewFor(c)
	if err != nil {
		return nil, err
	}
	vec := sim.SharedRandom(len(c.PIs), nWords, seed)
	out := make(map[circuit.NodeID]float64)
	totalBits := float64(nWords * 64)
	any := make([]uint64, nWords)
	v.WithSim(vec.Words, nWords, func(val []uint64) {
		for i := range c.Nodes {
			nd := &c.Nodes[i]
			if nd.IsPI || !HasLocalODC(nd.Kind, len(nd.Fanin)) {
				continue
			}
			cv, _ := nd.Kind.ControllingValue()
			// Pin 0's ODC condition: any other pin at the controlling value.
			for w := range any {
				any[w] = 0
			}
			for p := 1; p < len(nd.Fanin); p++ {
				words, mask := v.P.Stream(val, nWords, v.Refs[nd.Fanin[p]])
				if !cv {
					mask = ^mask
				}
				for w := 0; w < nWords; w++ {
					any[w] |= words[w] ^ mask
				}
			}
			masked := 0
			for _, a := range any {
				masked += bits.OnesCount64(a)
			}
			out[circuit.NodeID(i)] = float64(masked) / totalBits
		}
	})
	return out, nil
}
