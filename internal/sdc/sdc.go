// Package sdc implements Satisfiability Don't Care (SDC) based circuit
// fingerprinting — the companion technique to ODC fingerprinting published
// by the same authors (Dunbar & Qu, "Satisfiability Don't Care Condition
// Based Circuit Fingerprinting Techniques", ASP-DAC 2015, the paper's
// reference [9] and explicitly the work this DAC paper builds on "in a
// similar manner").
//
// An SDC of a gate is an input combination that can never occur because
// the gate's fanin signals are logically correlated. On such a combination
// the gate's output is a don't care: any function agreeing with the
// original on all *occurring* combinations is a drop-in replacement. For
// 2-input library gates, flipping the truth table at a single SDC minterm
// yields another (often simpler) library function — e.g. if AND(x, y) can
// never see (x,y) = (1,0), flipping that minterm turns AND into the
// function "x", so the whole gate collapses to BUF(x). Each gate with a
// provable SDC minterm whose flipped function exists in the cell vocabulary
// is an SDC fingerprint location: the choice between the original and the
// replacement encodes one fingerprint bit, with the same three properties
// as ODC fingerprints (function preserved, structurally distinct, inherited
// by copies).
//
// Detection is two-phase, as in the paper's flow: bit-parallel random
// simulation rules out combinations that do occur, then SAT queries prove
// the remaining candidates unreachable — each candidate's minterm asked as
// assumptions of one solver holding one encoding of the circuit.
package sdc

import (
	"fmt"
	"math/rand"

	"repro/internal/cec"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/sim"
)

// tt4 is a 2-input truth table: bit (a + 2b) is f(a, b).
type tt4 uint8

func kindTT(k logic.Kind) (tt4, bool) {
	switch k {
	case logic.And:
		return 0b1000, true
	case logic.Or:
		return 0b1110, true
	case logic.Nand:
		return 0b0111, true
	case logic.Nor:
		return 0b0001, true
	case logic.Xor:
		return 0b0110, true
	case logic.Xnor:
		return 0b1001, true
	}
	return 0, false
}

// Replacement describes the gate realising a flipped truth table.
type Replacement struct {
	// Kind of the replacement gate.
	Kind logic.Kind
	// Pins selects which original fanin pins the replacement reads:
	// both (0, 1), one of them, or none (constants).
	Pins []int
}

// replacementFor maps a flipped 2-input truth table to a library structure.
func replacementFor(t tt4) (Replacement, bool) {
	switch t {
	case 0b0000:
		return Replacement{Kind: logic.Const0, Pins: nil}, true
	case 0b1111:
		return Replacement{Kind: logic.Const1, Pins: nil}, true
	case 0b1010:
		return Replacement{Kind: logic.Buf, Pins: []int{0}}, true
	case 0b1100:
		return Replacement{Kind: logic.Buf, Pins: []int{1}}, true
	case 0b0101:
		return Replacement{Kind: logic.Inv, Pins: []int{0}}, true
	case 0b0011:
		return Replacement{Kind: logic.Inv, Pins: []int{1}}, true
	case 0b1000:
		return Replacement{Kind: logic.And, Pins: []int{0, 1}}, true
	case 0b1110:
		return Replacement{Kind: logic.Or, Pins: []int{0, 1}}, true
	case 0b0111:
		return Replacement{Kind: logic.Nand, Pins: []int{0, 1}}, true
	case 0b0001:
		return Replacement{Kind: logic.Nor, Pins: []int{0, 1}}, true
	case 0b0110:
		return Replacement{Kind: logic.Xor, Pins: []int{0, 1}}, true
	case 0b1001:
		return Replacement{Kind: logic.Xnor, Pins: []int{0, 1}}, true
	}
	return Replacement{}, false // AOI-style functions outside the vocabulary
}

// Location is one SDC fingerprint location: a 2-input gate with at least
// one proved-unreachable input combination whose flip is realisable.
type Location struct {
	Gate circuit.NodeID
	// Minterm is the proved SDC combination (a + 2b for pins 0, 1).
	Minterm int
	// Alt is the replacement structure (the "1" configuration; the
	// original gate is the "0" configuration).
	Alt Replacement
}

// Options tunes the analysis.
type Options struct {
	// Library gates the replacement vocabulary (required).
	Library *cell.Library
	// SimWords of random simulation pre-filtering (default 16 → 1024
	// patterns).
	SimWords int
	// Seed for the simulation pre-pass.
	Seed int64
}

// DefaultOptions uses 1024 random patterns. Every SAT proof runs to a
// verdict, so the locations found do not depend on how the circuit is
// encoded.
func DefaultOptions(lib *cell.Library) Options {
	return Options{Library: lib, SimWords: 16, Seed: 1}
}

// Analysis holds the SDC fingerprint locations of a circuit.
type Analysis struct {
	Circuit   *circuit.Circuit
	Locations []Location
}

// Analyze finds SDC fingerprint locations among the 2-input controlling
// and parity gates of c. Each gate contributes at most one location (the
// first provable minterm in index order), keeping locations independent.
func Analyze(c *circuit.Circuit, opts Options) (*Analysis, error) {
	if opts.Library == nil {
		return nil, fmt.Errorf("sdc: Options.Library is required")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if opts.SimWords <= 0 {
		opts.SimWords = 16
	}
	cands, err := candidates(c, opts)
	if err != nil {
		return nil, err
	}
	// Phase 2: SAT proof per candidate, all on one encoding of c.
	a := &Analysis{Circuit: c}
	if len(cands) == 0 {
		return a, nil
	}
	s := sat.New()
	piVars := make(map[string]int, len(c.PIs))
	for _, pi := range c.PIs {
		piVars[c.Nodes[pi].Name] = s.NewVar()
	}
	vars, err := cec.EncodeNodes(s, c, piVars)
	if err != nil {
		return nil, fmt.Errorf("sdc: %w", err)
	}
	for _, cd := range cands {
		unreachable, err := proveUnreachable(s, vars, &c.Nodes[cd.Gate], cd.Minterm)
		if err != nil {
			return nil, err
		}
		if unreachable {
			a.Locations = append(a.Locations, cd)
		}
	}
	return a, nil
}

// candidates is phase 1: one simulation run marks the fanin combinations
// that occur, and each 2-input gate whose first non-occurring minterm has
// a realisable flip becomes a candidate location, still to be proved.
func candidates(c *circuit.Circuit, opts Options) ([]Location, error) {
	// One run per analysis, so the gate-level reference costs less than an
	// AIG view.
	vec := sim.Random(len(c.PIs), opts.SimWords, opts.Seed)
	res, err := sim.Run(c, vec)
	if err != nil {
		return nil, err
	}
	var cands []Location
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if nd.IsPI || len(nd.Fanin) != 2 {
			continue
		}
		base, ok := kindTT(nd.Kind)
		if !ok {
			continue
		}
		occurred := [4]bool{}
		wa := res.Node[nd.Fanin[0]]
		wb := res.Node[nd.Fanin[1]]
		for w := range wa {
			a, b := wa[w], wb[w]
			if a&b != 0 {
				occurred[3] = true
			}
			if a&^b != 0 {
				occurred[1] = true
			}
			if b&^a != 0 {
				occurred[2] = true
			}
			if ^(a | b) != 0 {
				occurred[0] = true
			}
		}
		for m := 0; m < 4; m++ {
			if occurred[m] {
				continue
			}
			alt, ok := replacementFor(base ^ (1 << uint(m)))
			if !ok {
				continue
			}
			if !feasible(opts.Library, alt) {
				continue
			}
			cands = append(cands, Location{Gate: circuit.NodeID(i), Minterm: m, Alt: alt})
			break // one candidate minterm per gate
		}
	}
	return cands, nil
}

func feasible(lib *cell.Library, r Replacement) bool {
	return lib.Has(r.Kind, len(r.Pins))
}

// proveUnreachable asks the solver, which holds the circuit's encoding
// (vars: one literal per node), for an input assignment driving nd's
// fanin pair to the given minterm, as assumptions; UNSAT proves the SDC.
// The query has no budget, so its verdict does not depend on what earlier
// queries left in the solver.
func proveUnreachable(s *sat.Solver, vars []int, nd *circuit.Node, minterm int) (bool, error) {
	la := vars[nd.Fanin[0]]
	lb := vars[nd.Fanin[1]]
	if minterm&1 == 0 {
		la = -la
	}
	if minterm&2 == 0 {
		lb = -lb
	}
	switch s.Solve(la, lb) {
	case sat.Unsat:
		return true, nil
	case sat.Sat:
		return false, nil
	default:
		return false, fmt.Errorf("sdc: no SAT verdict proving gate %q minterm %d", nd.Name, minterm)
	}
}

// NumLocations returns the number of SDC fingerprint locations.
func (a *Analysis) NumLocations() int { return len(a.Locations) }

// Embed applies the SDC fingerprint bits (bit i set = location i replaced
// by its alternative structure) to a clone of the analysed circuit.
func Embed(a *Analysis, bits []bool) (*circuit.Circuit, error) {
	if len(bits) > len(a.Locations) {
		return nil, fmt.Errorf("sdc: %d bits exceed %d locations", len(bits), len(a.Locations))
	}
	out := a.Circuit.Clone()
	for i, set := range bits {
		if !set {
			continue
		}
		loc := &a.Locations[i]
		orig := &a.Circuit.Nodes[loc.Gate]
		fanin := make([]circuit.NodeID, len(loc.Alt.Pins))
		for j, p := range loc.Alt.Pins {
			fanin[j] = orig.Fanin[p]
		}
		if err := out.RewireGate(loc.Gate, loc.Alt.Kind, fanin); err != nil {
			return nil, fmt.Errorf("sdc: location %d: %w", i, err)
		}
	}
	// Deliberately no sweep: a BUF/constant replacement can leave another
	// gate without consumers, but the cell still exists on the die (and
	// may itself be an SDC location carrying a bit), so the netlist keeps
	// it. Extraction relies on this.
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Extract recovers the SDC fingerprint bits from a copy by structural
// comparison, matching gates by name.
func Extract(a *Analysis, copy *circuit.Circuit) ([]bool, error) {
	bits := make([]bool, len(a.Locations))
	for i := range a.Locations {
		loc := &a.Locations[i]
		orig := &a.Circuit.Nodes[loc.Gate]
		id, ok := copy.Lookup(orig.Name)
		if !ok {
			// The replacement may have made the gate constant/dead and
			// swept away; treat a missing gate as the alternative if the
			// alternative is a constant, else report tampering.
			if loc.Alt.Kind == logic.Const0 || loc.Alt.Kind == logic.Const1 {
				bits[i] = true
				continue
			}
			return nil, fmt.Errorf("sdc: gate %q missing from copy", orig.Name)
		}
		got := &copy.Nodes[id]
		if matches(a.Circuit, orig, copy, got, orig.Kind, faninOf(orig, []int{0, 1})) {
			bits[i] = false
			continue
		}
		if matches(a.Circuit, orig, copy, got, loc.Alt.Kind, faninOf(orig, loc.Alt.Pins)) {
			bits[i] = true
			continue
		}
		return nil, fmt.Errorf("sdc: gate %q matches neither configuration (tampered?)", orig.Name)
	}
	return bits, nil
}

func faninOf(orig *circuit.Node, pins []int) []circuit.NodeID {
	out := make([]circuit.NodeID, len(pins))
	for i, p := range pins {
		out[i] = orig.Fanin[p]
	}
	return out
}

func matches(origC *circuit.Circuit, orig *circuit.Node, cp *circuit.Circuit, got *circuit.Node, kind logic.Kind, fanin []circuit.NodeID) bool {
	if got.Kind != kind || len(got.Fanin) != len(fanin) {
		return false
	}
	want := make(map[string]int, len(fanin))
	for _, f := range fanin {
		want[origC.Nodes[f].Name]++
	}
	for _, f := range got.Fanin {
		name := cp.Nodes[f].Name
		if want[name] == 0 {
			return false
		}
		want[name]--
	}
	return true
}

// PlantSDC builds a test circuit with a known SDC: x = AND(a, b) and
// y = OR(a, b) both feed g = kind(x, y); the combination (x=1, y=0) is
// impossible because x → y. Exported for tests, examples and benchmarks.
func PlantSDC(kind logic.Kind, extraFanout bool) *circuit.Circuit {
	c := circuit.New("planted")
	a, _ := c.AddPI("a")
	b, _ := c.AddPI("b")
	x, _ := c.AddGate("x", logic.And, a, b)
	y, _ := c.AddGate("y", logic.Or, a, b)
	g, _ := c.AddGate("g", kind, x, y)
	if err := c.AddPO("o", g); err != nil {
		panic(err)
	}
	if extraFanout {
		h, _ := c.AddGate("h", logic.Nand, x, y)
		if err := c.AddPO("o2", h); err != nil {
			panic(err)
		}
	}
	return c
}

// RandomCorrelated builds a random circuit rich in correlated signal pairs
// (shared fanin), producing realistic SDC densities for benchmarks.
func RandomCorrelated(nPI, nGates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("corr")
	ids := make([]circuit.NodeID, 0, nPI+nGates)
	for i := 0; i < nPI; i++ {
		id, _ := c.AddPI(fmt.Sprintf("x%d", i))
		ids = append(ids, id)
	}
	kinds := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor}
	for g := 0; g < nGates; g++ {
		k := kinds[rng.Intn(len(kinds))]
		// Pick two distinct sources from a narrow recent window to force
		// correlation.
		win := 6
		if win > len(ids) {
			win = len(ids)
		}
		f1 := ids[len(ids)-1-rng.Intn(win)]
		f2 := ids[len(ids)-1-rng.Intn(win)]
		if f1 == f2 {
			f2 = ids[rng.Intn(len(ids))]
			if f1 == f2 {
				continue
			}
		}
		id, err := c.AddGate(fmt.Sprintf("g%d", g), k, f1, f2)
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	if err := c.AddPO("out", ids[len(ids)-1]); err != nil {
		panic(err)
	}
	for i := 0; i < 3 && i < len(ids); i++ {
		n := ids[len(ids)-2-i]
		if !c.IsPODriver(n) {
			if err := c.AddPO(fmt.Sprintf("out%d", i), n); err != nil {
				panic(err)
			}
		}
	}
	sw, _ := c.Sweep()
	return sw
}
