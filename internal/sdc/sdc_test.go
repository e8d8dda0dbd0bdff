package sdc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/cec"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/sim"
)

func lib() *cell.Library { return cell.Default() }

func TestPlantedSDCFound(t *testing.T) {
	// x = AND(a,b) implies y = OR(a,b), so (x,y) = (1,0) is an SDC of g.
	// XOR/XNOR are excluded: their flip at minterm 1 leaves the cell
	// vocabulary (covered by TestPlantedSDCReplacements).
	for _, kind := range []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor} {
		c := PlantSDC(kind, false)
		a, err := Analyze(c, DefaultOptions(lib()))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		found := false
		for _, loc := range a.Locations {
			if c.Nodes[loc.Gate].Name == "g" {
				found = true
				if loc.Minterm != 1 {
					t.Errorf("%v: minterm %d, want 1 (x=1,y=0)", kind, loc.Minterm)
				}
			}
		}
		if !found {
			t.Errorf("%v: planted SDC at gate g not found", kind)
		}
	}
}

func TestPlantedSDCReplacements(t *testing.T) {
	// Flipping minterm 1 (x=1, y=0): AND→BUF(x), OR→BUF(y), NAND→INV(x),
	// NOR→INV(y), XOR→y after flip? XOR tt 0110 flip bit1 → 0100, not in
	// vocabulary → XOR gate yields no location. XNOR 1001 flip bit1 →
	// 1011, not in vocabulary.
	type want struct {
		kind logic.Kind
		alt  logic.Kind
		pin  int
	}
	wants := []want{
		{logic.And, logic.Buf, 0},
		{logic.Or, logic.Buf, 1},
		{logic.Nand, logic.Inv, 0},
		{logic.Nor, logic.Inv, 1},
	}
	for _, w := range wants {
		c := PlantSDC(w.kind, false)
		a, err := Analyze(c, DefaultOptions(lib()))
		if err != nil {
			t.Fatal(err)
		}
		var loc *Location
		for i := range a.Locations {
			if c.Nodes[a.Locations[i].Gate].Name == "g" {
				loc = &a.Locations[i]
			}
		}
		if loc == nil {
			t.Fatalf("%v: no location at g", w.kind)
		}
		if loc.Alt.Kind != w.alt || len(loc.Alt.Pins) != 1 || loc.Alt.Pins[0] != w.pin {
			t.Errorf("%v: alt = %v pins %v, want %v pin %d", w.kind, loc.Alt.Kind, loc.Alt.Pins, w.alt, w.pin)
		}
	}
	// XOR/XNOR flips at minterm 1 leave the vocabulary: no location at g.
	for _, kind := range []logic.Kind{logic.Xor, logic.Xnor} {
		c := PlantSDC(kind, false)
		a, err := Analyze(c, DefaultOptions(lib()))
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range a.Locations {
			if c.Nodes[loc.Gate].Name == "g" {
				t.Errorf("%v: unexpected location at g (alt %v)", kind, loc.Alt.Kind)
			}
		}
	}
}

func TestNoFalseSDCs(t *testing.T) {
	// All four combinations occur at a gate fed by independent PIs.
	c := circuit.New("free")
	a1, _ := c.AddPI("a")
	b1, _ := c.AddPI("b")
	g, _ := c.AddGate("g", logic.And, a1, b1)
	if err := c.AddPO("o", g); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Locations) != 0 {
		t.Errorf("found %d SDC locations on independent inputs", len(a.Locations))
	}
}

// TestSimulationMissesProvedBySAT: craft a circuit where a combination is
// rare but reachable — SAT must reject the candidate even when simulation
// misses it.
func TestSimulationMissesProvedBySAT(t *testing.T) {
	// g = AND(x, y) with x = AND(a0..a9) and y = OR(a0..a9, b): (x=1,y=0)
	// is unreachable (x→y), but (x=1,y=1) needs all-ones a — probability
	// 2^-10 per pattern, so short simulations may miss it; it must NOT be
	// reported as an SDC.
	c := circuit.New("rare")
	var as []circuit.NodeID
	for i := 0; i < 10; i++ {
		id, _ := c.AddPI("a" + string(rune('0'+i)))
		as = append(as, id)
	}
	b, _ := c.AddPI("b")
	x1, _ := c.AddGate("x1", logic.And, as[0], as[1], as[2], as[3])
	x2, _ := c.AddGate("x2", logic.And, as[4], as[5], as[6], as[7])
	x3, _ := c.AddGate("x3", logic.And, as[8], as[9])
	x, _ := c.AddGate("x", logic.And, x1, x2, x3)
	y1, _ := c.AddGate("y1", logic.Or, as[0], b)
	y, _ := c.AddGate("y", logic.Or, y1, x)
	g, _ := c.AddGate("g", logic.And, x, y)
	if err := c.AddPO("o", g); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(lib())
	opts.SimWords = 1 // 64 patterns: will not see x=1
	a, err := Analyze(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range a.Locations {
		if c.Nodes[loc.Gate].Name != "g" {
			continue
		}
		// Only the genuinely unreachable minterm (x=1, y=0) = 1 may be
		// reported; (1,1) occurs (all a = 1) and (0,*) occur.
		if loc.Minterm != 1 {
			t.Errorf("false SDC at minterm %d of g", loc.Minterm)
		}
	}
}

func TestEmbedExtractRoundTripAndEquivalence(t *testing.T) {
	c := PlantSDC(logic.And, true)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLocations() < 1 {
		t.Fatal("no locations")
	}
	for _, set := range []bool{false, true} {
		bits := make([]bool, a.NumLocations())
		for i := range bits {
			bits[i] = set
		}
		cp, err := Embed(a, bits)
		if err != nil {
			t.Fatal(err)
		}
		eq, mm, err := sim.EquivalentExhaustive(c, cp)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("set=%v: SDC embed changed function: %v", set, mm)
		}
		got, err := Extract(a, cp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bits {
			if got[i] != bits[i] {
				t.Errorf("set=%v: bit %d extracted wrong", set, i)
			}
		}
	}
}

// TestRandomCorrelatedProperty: on correlated random circuits, every
// reported SDC location embeds to an exhaustively equivalent circuit and
// round-trips extraction.
func TestRandomCorrelatedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := RandomCorrelated(4+rng.Intn(3), 10+rng.Intn(15), seed)
		a, err := Analyze(c, DefaultOptions(lib()))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if a.NumLocations() == 0 {
			return true
		}
		bits := make([]bool, a.NumLocations())
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		cp, err := Embed(a, bits)
		if err != nil {
			t.Logf("seed %d embed: %v", seed, err)
			return false
		}
		eq, mm, err := sim.EquivalentExhaustive(c, cp)
		if err != nil {
			t.Logf("seed %d sim: %v", seed, err)
			return false
		}
		if !eq {
			t.Logf("seed %d: FUNCTION CHANGED: %v (bits %v)", seed, mm, bits)
			return false
		}
		got, err := Extract(a, cp)
		if err != nil {
			t.Logf("seed %d extract: %v", seed, err)
			return false
		}
		for i := range bits {
			if got[i] != bits[i] {
				t.Logf("seed %d: bit %d mismatch", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSDCvsCEC(t *testing.T) {
	// Full SAT equivalence on a larger correlated circuit with all bits set.
	c := RandomCorrelated(8, 60, 7)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLocations() == 0 {
		t.Skip("no SDCs in sample")
	}
	bits := make([]bool, a.NumLocations())
	for i := range bits {
		bits[i] = true
	}
	cp, err := Embed(a, bits)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cec.Check(c, cp, cec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equivalent {
		t.Fatalf("SDC fingerprint not equivalent: differing PO %q", v.PO)
	}
	t.Logf("%d SDC locations on %d gates", a.NumLocations(), c.NumGates())
}

func TestEmbedValidation(t *testing.T) {
	c := PlantSDC(logic.And, false)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Embed(a, make([]bool, a.NumLocations()+1)); err == nil {
		t.Error("oversized bits accepted")
	}
	if _, err := Analyze(c, Options{}); err == nil {
		t.Error("missing library accepted")
	}
}

func TestExtractTamperDetection(t *testing.T) {
	c := PlantSDC(logic.And, true)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]bool, a.NumLocations())
	cp, err := Embed(a, bits)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: change the located gate to an unrelated kind.
	name := c.Nodes[a.Locations[0].Gate].Name
	if err := cp.SetKind(cp.MustLookup(name), logic.Xnor); err != nil {
		t.Fatal(err)
	}
	if _, err := Extract(a, cp); err == nil {
		t.Error("tampered SDC gate not detected")
	}
}

// freshSolverLocations is phase 2 as it ran before one encoding served
// every candidate, kept as the oracle: a new solver and a new encoding of
// the whole circuit per candidate.
func freshSolverLocations(t *testing.T, c *circuit.Circuit, opts Options) []Location {
	t.Helper()
	cands, err := candidates(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	var locs []Location
	for _, cd := range cands {
		s := sat.New()
		piVars := make(map[string]int, len(c.PIs))
		for _, pi := range c.PIs {
			piVars[c.Nodes[pi].Name] = s.NewVar()
		}
		vars, err := cec.EncodeNodes(s, c, piVars)
		if err != nil {
			t.Fatal(err)
		}
		unreachable, err := proveUnreachable(s, vars, &c.Nodes[cd.Gate], cd.Minterm)
		if err != nil {
			t.Fatal(err)
		}
		if unreachable {
			locs = append(locs, cd)
		}
	}
	return locs
}

// TestSharedSolverMatchesFreshSolvers: answering every candidate on one
// encoding finds exactly the locations a fresh solver per candidate does,
// on correlated random circuits and on suite circuits.
func TestSharedSolverMatchesFreshSolvers(t *testing.T) {
	circuits := map[string]*circuit.Circuit{
		"corr100": RandomCorrelated(12, 100, 7),
		"corr400": RandomCorrelated(12, 400, 7),
	}
	for _, name := range []string{"c432", "c880", "c1355", "c1908"} {
		spec, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits[name] = spec.Build()
	}
	for name, c := range circuits {
		a, err := Analyze(c, DefaultOptions(lib()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := freshSolverLocations(t, c, DefaultOptions(lib()))
		if !reflect.DeepEqual(a.Locations, want) {
			t.Errorf("%s: %d locations on one solver, %d with a fresh solver per candidate", name, len(a.Locations), len(want))
		}
		t.Logf("%s: %d locations", name, len(want))
		if strings.HasPrefix(name, "corr") && len(want) == 0 {
			t.Errorf("%s: no SDC locations; the comparison saw nothing", name)
		}
	}
}
