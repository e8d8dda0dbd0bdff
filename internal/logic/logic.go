// Package logic defines the primitive gate vocabulary shared by every other
// package in the repository: gate kinds, their Boolean semantics (both scalar
// and 64-way bit-parallel), and the controlling/identity value algebra that
// the Observability Don't Care (ODC) fingerprinting method of Dunbar & Qu
// (DAC 2015) is built on.
//
// A gate kind "has a controlling value" when a single input pinned at that
// value forces the gate output regardless of the other inputs (0 for AND/NAND,
// 1 for OR/NOR). Those are exactly the gates with non-zero local ODC
// conditions: when one pin is at the controlling value, every other pin is
// unobservable. The paper's Table I (gates usable as ODC/fingerprint gates)
// corresponds to Kind.ODCCapable below.
package logic

import "fmt"

// Kind enumerates the gate types in the standard-cell vocabulary.
//
// The zero value is Const0 so that a zero Node in package circuit is a
// harmless constant rather than an invalid gate.
type Kind uint8

// Gate kinds. Const0/Const1 take no inputs, Buf/Inv take exactly one, and the
// remaining kinds accept two or more inputs (bounded by the cell library's
// maximum fanin when mapped).
const (
	Const0 Kind = iota // constant logic 0
	Const1             // constant logic 1
	Buf                // buffer, Y = A
	Inv                // inverter, Y = A'
	And                // Y = A·B·...
	Nand               // Y = (A·B·...)'
	Or                 // Y = A+B+...
	Nor                // Y = (A+B+...)'
	Xor                // Y = A⊕B⊕...
	Xnor               // Y = (A⊕B⊕...)'

	NumKinds = iota // number of distinct kinds
)

var kindNames = [NumKinds]string{
	Const0: "CONST0",
	Const1: "CONST1",
	Buf:    "BUF",
	Inv:    "INV",
	And:    "AND",
	Nand:   "NAND",
	Or:     "OR",
	Nor:    "NOR",
	Xor:    "XOR",
	Xnor:   "XNOR",
}

// String returns the canonical upper-case mnemonic for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is one of the declared gate kinds.
func (k Kind) Valid() bool { return int(k) < NumKinds }

// ParseKind converts a mnemonic (case-sensitive, as produced by String) back
// into a Kind. It returns an error for unknown names.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("logic: unknown gate kind %q", s)
}

// MinFanin returns the minimum number of inputs a gate of kind k accepts.
func (k Kind) MinFanin() int {
	switch k {
	case Const0, Const1:
		return 0
	case Buf, Inv:
		return 1
	default:
		return 2
	}
}

// FixedFanin reports whether k only accepts exactly MinFanin inputs.
// Constants and single-input gates are fixed; the multi-input kinds accept
// any fanin ≥ 2 (the cell library bounds the practical maximum).
func (k Kind) FixedFanin() bool {
	switch k {
	case Const0, Const1, Buf, Inv:
		return true
	}
	return false
}

// Inverting reports whether the gate complements its "core" function
// (NAND/NOR/XNOR/Inv and Const1 as the complement of Const0).
func (k Kind) Inverting() bool {
	switch k {
	case Inv, Nand, Nor, Xnor, Const1:
		return true
	}
	return false
}

// Base returns the non-inverting counterpart of k (Nand→And, Nor→Or,
// Xnor→Xor, Inv→Buf, Const1→Const0); non-inverting kinds return themselves.
func (k Kind) Base() Kind {
	switch k {
	case Inv:
		return Buf
	case Nand:
		return And
	case Nor:
		return Or
	case Xnor:
		return Xor
	case Const1:
		return Const0
	}
	return k
}

// Complement returns the kind computing the complemented function of k
// (And↔Nand, Or↔Nor, Xor↔Xnor, Buf↔Inv, Const0↔Const1).
func (k Kind) Complement() Kind {
	switch k {
	case Buf:
		return Inv
	case Inv:
		return Buf
	case And:
		return Nand
	case Nand:
		return And
	case Or:
		return Nor
	case Nor:
		return Or
	case Xor:
		return Xnor
	case Xnor:
		return Xor
	case Const0:
		return Const1
	case Const1:
		return Const0
	}
	return k
}

// HasControllingValue reports whether a single input can force the output of
// a k-gate regardless of its other inputs.
func (k Kind) HasControllingValue() bool {
	switch k {
	case And, Nand, Or, Nor:
		return true
	}
	return false
}

// ControllingValue returns the input value that forces the output of a
// k-gate, and ok=false when k has no controlling value (XOR family,
// single-input gates, constants).
func (k Kind) ControllingValue() (v bool, ok bool) {
	switch k {
	case And, Nand:
		return false, true
	case Or, Nor:
		return true, true
	}
	return false, false
}

// IdentityValue returns the input value that leaves a k-gate's function over
// its remaining inputs unchanged (the non-controlling value: 1 for AND/NAND,
// 0 for OR/NOR, 0 for XOR, 1 for XNOR). ok=false for kinds where adding an
// input is meaningless (constants, Buf, Inv).
//
// This is the value an added fingerprint literal must take whenever the FFC
// output is observable; see internal/core.
func (k Kind) IdentityValue() (v bool, ok bool) {
	switch k {
	case And, Nand:
		return true, true
	case Or, Nor:
		return false, true
	case Xor:
		return false, true
	case Xnor:
		// XNOR(a,b,...,1) over n+1 inputs is not XNOR(a,b,...) in the
		// usual multi-input reduction (Y = parity complement); adding a
		// constant-1 input flips parity and the complement flips it
		// back, so 0 is the identity for the parity core and the
		// complement is applied after: XNOR_{n+1}(x...,0) = XNOR_n(x...).
		return false, true
	}
	return false, false
}

// ODCCapable reports whether a k-gate generates non-trivial local ODC
// conditions for its inputs — i.e. whether it can serve as the "primary gate"
// of a fingerprint location (Definition 1, criterion 4) or as the
// ODC-trigger-forcing gate of the Fig. 5 reroute variant. These are the
// controlling-value gates: AND, NAND, OR, NOR (the paper's Table I).
func (k Kind) ODCCapable() bool { return k.HasControllingValue() }

// SingleInput reports whether k is a single-input gate (Buf or Inv). Such
// gates qualify as modification targets inside a fanout-free cone under
// Definition 1, criterion 3, by conversion into a two-input gate.
func (k Kind) SingleInput() bool { return k == Buf || k == Inv }

// FingerprintTarget reports whether a gate of kind k sitting inside a
// fanout-free cone can absorb a fingerprint modification: either it has an
// identity value (an extra literal can be appended without changing its
// function when the literal is at the identity value) or it is a single-input
// gate that can be converted. XOR-family gates are accepted for literal
// addition only when allowXor is set; the paper's catalogue excludes them,
// and the default pipeline passes false.
func (k Kind) FingerprintTarget(allowXor bool) bool {
	switch k {
	case And, Nand, Or, Nor:
		return true
	case Buf, Inv:
		return true
	case Xor, Xnor:
		return allowXor
	}
	return false
}

// Eval computes the scalar Boolean output of a k-gate over the given inputs.
// It panics if the number of inputs is not legal for the kind; circuit
// validation is expected to happen before evaluation.
func (k Kind) Eval(in []bool) bool {
	switch k {
	case Const0:
		return false
	case Const1:
		return true
	case Buf:
		return in[0]
	case Inv:
		return !in[0]
	case And, Nand:
		v := true
		for _, b := range in {
			v = v && b
		}
		if k == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, b := range in {
			v = v || b
		}
		if k == Nor {
			return !v
		}
		return v
	case Xor, Xnor:
		v := false
		for _, b := range in {
			v = v != b
		}
		if k == Xnor {
			return !v
		}
		return v
	}
	panic(fmt.Sprintf("logic: Eval on invalid kind %d", uint8(k)))
}

// EvalWord computes 64 evaluations of a k-gate in parallel, one per bit lane.
// It is the workhorse of the gate-level reference simulator (sim.Run), which
// calls it once per gate and word.
func (k Kind) EvalWord(in []uint64) uint64 {
	switch k {
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	case Buf:
		return in[0]
	case Inv:
		return ^in[0]
	case And, Nand:
		v := ^uint64(0)
		for _, w := range in {
			v &= w
		}
		if k == Nand {
			return ^v
		}
		return v
	case Or, Nor:
		v := uint64(0)
		for _, w := range in {
			v |= w
		}
		if k == Nor {
			return ^v
		}
		return v
	case Xor, Xnor:
		v := uint64(0)
		for _, w := range in {
			v ^= w
		}
		if k == Xnor {
			return ^v
		}
		return v
	}
	panic(fmt.Sprintf("logic: EvalWord on invalid kind %d", uint8(k)))
}

// Prob1 returns the probability that a k-gate outputs 1 given independent
// input probabilities p (P[input_i = 1] = p[i]). Used by the probabilistic
// power estimator.
func (k Kind) Prob1(p []float64) float64 {
	switch k {
	case Const0:
		return 0
	case Const1:
		return 1
	case Buf:
		return p[0]
	case Inv:
		return 1 - p[0]
	case And, Nand:
		v := 1.0
		for _, q := range p {
			v *= q
		}
		if k == Nand {
			return 1 - v
		}
		return v
	case Or, Nor:
		v := 1.0
		for _, q := range p {
			v *= 1 - q
		}
		if k == Nor {
			return v
		}
		return 1 - v
	case Xor, Xnor:
		// P[odd parity] via the product formula:
		// 1-2·P[odd] = Π(1-2p_i).
		prod := 1.0
		for _, q := range p {
			prod *= 1 - 2*q
		}
		odd := (1 - prod) / 2
		if k == Xnor {
			return 1 - odd
		}
		return odd
	}
	panic(fmt.Sprintf("logic: Prob1 on invalid kind %d", uint8(k)))
}

// AllKinds returns every declared kind, in declaration order. The slice is
// freshly allocated on each call so callers may mutate it.
func AllKinds() []Kind {
	out := make([]Kind, NumKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}
