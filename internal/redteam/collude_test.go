package redteam

import (
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/registry"
	"repro/internal/sim"
)

// testDesign builds a random mapped circuit with a healthy number of
// fingerprint locations and returns its analysis.
func testDesign(t testing.TB, seed int64, nGates int) *core.Analysis {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("ip")
	ids := make([]circuit.NodeID, 0, nGates+8)
	for i := 0; i < 8; i++ {
		id, _ := c.AddPI("pi" + string(rune('a'+i)))
		ids = append(ids, id)
	}
	kinds := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Inv}
	for g := 0; g < nGates; g++ {
		k := kinds[rng.Intn(len(kinds))]
		n := k.MinFanin()
		fanin := make([]circuit.NodeID, 0, n)
		seen := map[circuit.NodeID]bool{}
		for len(fanin) < n {
			idx := len(ids) - 1 - rng.Intn(minInt(len(ids), 6))
			f := ids[idx]
			if seen[f] {
				idx = rng.Intn(len(ids))
				f = ids[idx]
				if seen[f] {
					continue
				}
			}
			seen[f] = true
			fanin = append(fanin, f)
		}
		id, err := c.AddGate(c.FreshName("g"), k, fanin...)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := c.AddPO("o1", ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPO("o2", ids[len(ids)-4]); err != nil {
		t.Fatal(err)
	}
	sw, _ := c.Sweep()
	a, err := core.Analyze(sw, core.DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// adopt records asg as buyer's fingerprint in the registry.
func adopt(t testing.TB, r *registry.Registry, a *core.Analysis, buyer string, asg core.Assignment) {
	t.Helper()
	v, err := a.IntFromAssignment(asg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Adopt(buyer, v.String()); err != nil {
		t.Fatal(err)
	}
}

// issueCopies creates n buyers with random binary fingerprints, records
// them in the registry, and returns their instances.
func issueCopies(t testing.TB, a *core.Analysis, r *registry.Registry, n int, seed int64) []*circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*circuit.Circuit, n)
	for i := 0; i < n; i++ {
		bits := make([]bool, a.BitCapacity())
		for j := range bits {
			bits[j] = rng.Intn(2) == 1
		}
		asg, err := a.AssignmentFromBits(bits)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := core.Embed(a, asg)
		if err != nil {
			t.Fatal(err)
		}
		adopt(t, r, a, "buyer"+string(rune('A'+i)), asg)
		out[i] = cp
	}
	return out
}

func TestCollusionDetectsDifferingSites(t *testing.T) {
	a := testDesign(t, 2, 120)
	if a.BitCapacity() < 10 {
		t.Skip("too few locations")
	}
	copies := issueCopies(t, a, registry.New(a), 4, 7)
	res, err := Coalition(copies[:3], StrategyFewestPins)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DetectedGates) == 0 {
		t.Fatal("random distinct fingerprints should differ somewhere")
	}
	// The forged instance must still compute the original function
	// (attackers wanting a working chip only apply function-preserving
	// merges).
	eq, mm, err := sim.EquivalentExhaustive(a.Circuit, res.Forged)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("forged instance broke the function: %v", mm)
	}
}

func TestCollusionTracing(t *testing.T) {
	a := testDesign(t, 3, 200)
	if a.BitCapacity() < 20 {
		t.Skip("need ≥20 locations for reliable score separation")
	}
	r := registry.New(a)
	copies := issueCopies(t, a, r, 8, 13)
	colluders := copies[:3]
	res, err := Coalition(colluders, StrategyFewestPins)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := r.TraceScores(a, res.Forged)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 8 {
		t.Fatalf("scores for %d buyers", len(scores))
	}
	byName := map[string]registry.Score{}
	for _, s := range scores {
		byName[s.Name] = s
	}
	// Marking assumption: every colluder matches every surviving
	// modification exactly (the coalition cannot detect sites where it is
	// unanimous), so colluder scores are exactly 1.0.
	for _, n := range []string{"buyerA", "buyerB", "buyerC"} {
		s := byName[n]
		if s.TotalPresent == 0 {
			t.Fatalf("%s: no surviving modifications to score against", n)
		}
		if s.Fraction() != 1.0 {
			t.Errorf("colluder %s score %.3f, want exactly 1.0 (%d/%d)", n, s.Fraction(), s.AgreePresent, s.TotalPresent)
		}
	}
	// Innocent buyers with random fingerprints miss some surviving
	// modification with overwhelming probability at ≥20 locations.
	bestInnocent := 0.0
	for _, n := range []string{"buyerD", "buyerE", "buyerF", "buyerG", "buyerH"} {
		if f := byName[n].Fraction(); f > bestInnocent {
			bestInnocent = f
		}
	}
	if bestInnocent >= 1.0 {
		t.Errorf("an innocent buyer scored 1.0; separation failed")
	}
	// Accusation at a threshold of 1.0 implicates exactly the colluders.
	accused := registry.Implicated(scores, 1.0)
	want := map[string]bool{"buyerA": true, "buyerB": true, "buyerC": true}
	if len(accused) != 3 {
		t.Fatalf("accused = %v", accused)
	}
	for _, n := range accused {
		if !want[n] {
			t.Errorf("innocent %s accused", n)
		}
	}
}

// TestColludeSingleCopyDegrades: a k=1 "coalition" has nothing to diff, so
// the fewest-pins merge degrades to the single-copy analysis — a clean
// clone, no detected gates — instead of erroring out. Zero copies is still
// an error.
func TestColludeSingleCopyDegrades(t *testing.T) {
	a := testDesign(t, 4, 60)
	r := registry.New(a)
	copies := issueCopies(t, a, r, 1, 5)
	res, err := Coalition(copies, StrategyFewestPins)
	if err != nil {
		t.Fatalf("single-copy collusion: %v", err)
	}
	if len(res.DetectedGates) != 0 {
		t.Errorf("k=1 detected gates %v, want none", res.DetectedGates)
	}
	// The lone buyer's fingerprint is intact: exact tracing still works.
	name, err := r.TraceExact(a, res.Forged)
	if err != nil {
		t.Fatal(err)
	}
	if name != "buyerA" {
		t.Errorf("TraceExact on k=1 forgery = %q, want buyerA", name)
	}
	if _, err := Coalition(nil, StrategyFewestPins); err == nil {
		t.Error("zero-copy collusion accepted")
	}
}

// TestTraceFullRemoval: two copies whose fingerprints are disjoint single
// bits disagree at every modified slot, so the fewest-pins coalition strips
// both — a full removal. Tracing must report that as its own verdict with
// an empty accusation list, not implicate every registered buyer.
func TestTraceFullRemoval(t *testing.T) {
	a := testDesign(t, 7, 120)
	if a.BitCapacity() < 2 {
		t.Skip("too few locations")
	}
	r := registry.New(a)
	mk := func(hot int) core.Assignment {
		bits := make([]bool, a.BitCapacity())
		bits[hot] = true
		asg, err := a.AssignmentFromBits(bits)
		if err != nil {
			t.Fatal(err)
		}
		return asg
	}
	// Pick two locations with distinct target gates: a shared target would
	// make the two forms tie on pin count and survive the merge.
	second := -1
	for i := 1; i < len(a.Locations); i++ {
		if a.Locations[i].Targets[0].Gate != a.Locations[0].Targets[0].Gate {
			second = i
			break
		}
	}
	if second < 0 {
		t.Skip("all locations share one target gate")
	}
	asgA, asgB := mk(0), mk(second)
	adopt(t, r, a, "buyerA", asgA)
	adopt(t, r, a, "buyerB", asgB)
	cpA, err := core.Embed(a, asgA)
	if err != nil {
		t.Fatal(err)
	}
	cpB, err := core.Embed(a, asgB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Coalition([]*circuit.Circuit{cpA, cpB}, StrategyFewestPins)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DetectedGates) == 0 {
		t.Fatal("disjoint fingerprints should differ somewhere")
	}
	scores, err := r.TraceScores(a, res.Forged)
	if err != nil {
		t.Fatal(err)
	}
	if !registry.FullRemoval(scores) {
		t.Fatalf("full removal not reported: %+v", scores)
	}
	if accused := registry.Implicated(scores, 1.0); len(accused) != 0 {
		t.Errorf("full removal accused %v, want nobody", accused)
	}
	// The untouched-copy path still accuses: tracing buyer A's own copy.
	scores, err = r.TraceScores(a, cpA)
	if err != nil {
		t.Fatal(err)
	}
	if registry.FullRemoval(scores) {
		t.Error("intact copy misreported as full removal")
	}
	if accused := registry.Implicated(scores, 1.0); len(accused) != 1 || accused[0] != "buyerA" {
		t.Errorf("accused %v, want [buyerA]", accused)
	}
}

func TestColludeMismatchedLayouts(t *testing.T) {
	a := testDesign(t, 5, 60)
	copies := issueCopies(t, a, registry.New(a), 2, 5)
	other := circuit.New("other")
	p, _ := other.AddPI("zz")
	g, _ := other.AddGate("g", logic.Inv, p)
	if err := other.AddPO("o", g); err != nil {
		t.Fatal(err)
	}
	for _, st := range Strategies() {
		if _, err := Coalition([]*circuit.Circuit{copies[0], other}, st); err == nil {
			t.Errorf("%v: foreign layout accepted", st)
		}
	}
}

// TestSingleCopyStealth: the paper's §III-E claim — a single fingerprinted
// copy looks self-consistent; re-running location analysis on it does not
// expose which sites carry fingerprint bits. We verify that the location
// analysis of a fingerprinted instance differs from the original's (the
// embedded trigger wire destroys/changes the original location), so an
// attacker without the reference design cannot simply recompute locations
// and strip them.
func TestSingleCopyStealth(t *testing.T) {
	a := testDesign(t, 6, 150)
	if a.BitCapacity() < 10 {
		t.Skip("too few locations")
	}
	bits := make([]bool, a.BitCapacity())
	for i := range bits {
		bits[i] = true
	}
	asg, err := a.AssignmentFromBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.Embed(a, asg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := core.Analyze(cp, core.DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatal(err)
	}
	// The attacker sees a location set; count how many of the original
	// modified target gates are even offered as targets in the copy's own
	// analysis with the same canonical variant. Full overlap would mean the
	// fingerprint sites are trivially re-identifiable.
	modified := map[string]bool{}
	for i := range a.Locations {
		modified[a.Circuit.Nodes[a.Locations[i].Targets[0].Gate].Name] = true
	}
	recovered := 0
	for i := range a2.Locations {
		name := cp.Nodes[a2.Locations[i].Targets[0].Gate].Name
		if modified[name] {
			recovered++
		}
	}
	if recovered == len(modified) {
		t.Errorf("all %d fingerprinted gates re-identified as canonical targets; stealth property violated", recovered)
	}
}

// TestCoalitionReproducible: a merge is a pure function of its copies.
// Helper inverters recreated during transplants get fresh names and append
// nodes, so transplanting in any run-dependent order (such as map
// iteration) would change the forged netlist from run to run.
func TestCoalitionReproducible(t *testing.T) {
	a := testDesign(t, 8, 300)
	copies := issueCopies(t, a, registry.New(a), 4, 17)
	for _, st := range Strategies() {
		first, err := Coalition(copies, st)
		if err != nil {
			t.Fatal(err)
		}
		if len(first.DetectedGates) == 0 {
			t.Fatalf("%v: coalition detected nothing; test vacuous", st)
		}
		want := first.Forged.String()
		for run := 0; run < 2; run++ {
			again, err := Coalition(copies, st)
			if err != nil {
				t.Fatal(err)
			}
			if got := again.Forged.String(); got != want {
				t.Fatalf("%v: forged netlist differs between runs", st)
			}
		}
	}
}
