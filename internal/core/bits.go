package core

import (
	"fmt"
	"math"
	"math/big"
)

// Capacity summarises the fingerprint space of an analysed circuit: the
// paper's Table II columns "Fingerprint Locations" and "Log₂(Possible
// Fingerprint Combinations)".
type Capacity struct {
	Locations int
	// Targets is the number of independently modifiable (location, target)
	// slots; the paper's "2^n minimum" uses one slot per location.
	Targets int
	// Log2Combos is log₂ of the total number of distinct configurations
	// (the product over slots of 1 + variant count).
	Log2Combos float64
}

// Capacity computes the fingerprint capacity of the analysis.
func (a *Analysis) Capacity() Capacity {
	cap := Capacity{Locations: len(a.Locations)}
	for i := range a.Locations {
		for j := range a.Locations[i].Targets {
			cap.Targets++
			cap.Log2Combos += math.Log2(float64(1 + len(a.Locations[i].Targets[j].Variants)))
		}
	}
	return cap
}

// Combinations returns the exact total number of configurations as a big
// integer (the paper notes these counts overflow ordinary words: "the
// numbers were so large in some cases that the data could not be accurately
// represented in our tables and in the program we wrote"). The product is
// computed once per analysis; each call returns a fresh copy.
func (a *Analysis) Combinations() *big.Int {
	return new(big.Int).Set(a.shape())
}

// shape computes the slot radices and their product on first use and
// returns the product; both are shared and read-only.
func (a *Analysis) shape() *big.Int {
	a.shapeOnce.Do(func() {
		total := big.NewInt(1)
		radix := new(big.Int)
		a.radices = make([]int, 0, a.TotalTargets())
		for i := range a.Locations {
			for j := range a.Locations[i].Targets {
				r := 1 + len(a.Locations[i].Targets[j].Variants)
				a.radices = append(a.radices, r)
				radix.SetInt64(int64(r))
				total.Mul(total, radix)
			}
		}
		a.combos = total
	})
	return a.combos
}

// AssignmentFromInt decodes a fingerprint value in [0, Combinations()) into
// an assignment using mixed-radix positional encoding: slot (i, j) has radix
// 1 + |variants|, digit 0 meaning "unmodified" and digit d meaning variant
// d−1. Values outside the range are rejected. The rows share one slab of
// digits in Radices order.
func (a *Analysis) AssignmentFromInt(value *big.Int) (Assignment, error) {
	if value.Sign() < 0 {
		return nil, fmt.Errorf("core: negative fingerprint value")
	}
	if combos := a.shape(); value.Cmp(combos) >= 0 {
		return nil, fmt.Errorf("core: fingerprint value exceeds capacity (%s combinations)", combos.String())
	}
	digits := make([]int, len(a.radices))
	if err := DecodeDigits(value, a.radices, digits); err != nil {
		return nil, err
	}
	asg := make(Assignment, len(a.Locations))
	for i := range a.Locations {
		n := len(a.Locations[i].Targets)
		asg[i], digits = digits[:n:n], digits[n:]
	}
	return asg, nil
}

// Radices returns every modification slot's radix, 1 + its variant count,
// in the positional order of AssignmentFromInt: location by location, and
// within a location target by target. The slice is computed once and
// shared; callers must treat it as read-only.
func (a *Analysis) Radices() []int {
	a.shape()
	return a.radices
}

// DecodeDigits writes the mixed-radix digits of value over radices (see
// Radices) into dst, one per radix, each minus one: −1 is "unmodified" and
// d ≥ 0 is variant d, the flat form of AssignmentFromInt. Values outside
// [0, ∏radices) are rejected.
func DecodeDigits(value *big.Int, radices []int, dst []int) error {
	if value.Sign() < 0 {
		return fmt.Errorf("core: negative fingerprint value")
	}
	if len(dst) != len(radices) {
		return fmt.Errorf("core: %d digits for %d radices", len(dst), len(radices))
	}
	rest := new(big.Int).Set(value)
	radix := new(big.Int)
	digit := new(big.Int)
	for k, r := range radices {
		radix.SetInt64(int64(r))
		rest.DivMod(rest, radix, digit)
		dst[k] = int(digit.Int64()) - 1
	}
	if rest.Sign() != 0 {
		return fmt.Errorf("core: fingerprint value exceeds capacity")
	}
	return nil
}

// IntFromAssignment is the inverse of AssignmentFromInt.
func (a *Analysis) IntFromAssignment(asg Assignment) (*big.Int, error) {
	if err := asg.validate(a); err != nil {
		return nil, err
	}
	value := new(big.Int)
	weight := big.NewInt(1)
	radix := new(big.Int)
	term := new(big.Int)
	for i := range a.Locations {
		for j := range a.Locations[i].Targets {
			term.SetInt64(int64(asg[i][j] + 1))
			term.Mul(term, weight)
			value.Add(value, term)
			radix.SetInt64(int64(1 + len(a.Locations[i].Targets[j].Variants)))
			weight.Mul(weight, radix)
		}
	}
	return value, nil
}

// BitCapacity returns the number of plain binary fingerprint bits available
// in one-bit-per-location mode (the paper's "n bits of data in the bit
// string" baseline).
func (a *Analysis) BitCapacity() int { return len(a.Locations) }

// AssignmentFromBits builds an assignment from a binary fingerprint: bit i
// set means location i's canonical target gets its first variant. The slice
// may be shorter than BitCapacity (remaining locations stay unmodified) but
// not longer.
func (a *Analysis) AssignmentFromBits(bits []bool) (Assignment, error) {
	if len(bits) > len(a.Locations) {
		return nil, fmt.Errorf("core: %d bits exceed the %d available locations", len(bits), len(a.Locations))
	}
	asg := EmptyAssignment(a)
	for i, b := range bits {
		if b {
			asg[i][0] = 0
		}
	}
	return asg, nil
}

// BitsFromAssignment recovers the binary fingerprint from an assignment
// produced by AssignmentFromBits (length BitCapacity).
func (a *Analysis) BitsFromAssignment(asg Assignment) ([]bool, error) {
	if err := asg.validate(a); err != nil {
		return nil, err
	}
	bits := make([]bool, len(a.Locations))
	for i := range asg {
		for j, v := range asg[i] {
			if v < 0 {
				continue
			}
			if j != 0 || v != 0 {
				return nil, fmt.Errorf("core: assignment uses non-canonical modification at location %d (target %d variant %d); not a binary fingerprint", i, j, v)
			}
			bits[i] = true
		}
	}
	return bits, nil
}
