package redteam

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/sim"
)

// coalitionFixture fingerprints three colluders plus one innocent buyer on
// c432. All colluders share the bit at location 0; each drops one private
// bit, so every pairwise diff is non-empty.
func coalitionFixture(t *testing.T) (*core.Analysis, *registry.Registry, []*circuit.Circuit) {
	t.Helper()
	a := testAnalysis(t, "c432")
	n := a.BitCapacity()
	if n < 4 {
		t.Skipf("c432 capacity %d too small", n)
	}
	mk := func(drop int) []bool {
		bits := make([]bool, n)
		for i := 0; i < 4; i++ {
			bits[i] = i != drop
		}
		return bits
	}
	r := registry.New(a)
	var copies []*circuit.Circuit
	for i, name := range []string{"colluder1", "colluder2", "colluder3"} {
		asg := mustAssign(t, a, mk(i+1))
		adopt(t, r, a, name, asg)
		copies = append(copies, mustEmbed(t, a, asg))
	}
	// The innocent buyer carries none of the coalition's bits.
	innocent := make([]bool, n)
	if n > 4 {
		innocent[4] = true
	}
	adopt(t, r, a, "innocent", mustAssign(t, a, innocent))
	return a, r, copies
}

// trace scores the suspect against every recorded buyer and returns the
// buyers implicated at threshold, and whether the suspect is a full
// removal.
func trace(t *testing.T, r *registry.Registry, a *core.Analysis, suspect *circuit.Circuit, threshold float64) (accused []string, fullRemoval bool) {
	t.Helper()
	scores, err := r.TraceScores(a, suspect)
	if err != nil {
		t.Fatal(err)
	}
	return registry.Implicated(scores, threshold), registry.FullRemoval(scores)
}

// TestCoalitionFewestPins: the paper's adversary. Every surviving
// modification is shared by the whole coalition, so tracing implicates all
// three colluders and never the innocent buyer.
func TestCoalitionFewestPins(t *testing.T) {
	a, r, copies := coalitionFixture(t)
	res, err := Coalition(copies, StrategyFewestPins)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DetectedGates) == 0 {
		t.Fatal("coalition detected nothing")
	}
	accused, fullRemoval := trace(t, r, a, res.Forged, 1.0)
	if fullRemoval {
		t.Fatal("coalition shares location 0's bit; full removal is impossible")
	}
	got := map[string]bool{}
	for _, n := range accused {
		got[n] = true
	}
	for _, want := range []string{"colluder1", "colluder2", "colluder3"} {
		if !got[want] {
			t.Errorf("%s evaded tracing (accused: %v)", want, accused)
		}
	}
	if got["innocent"] {
		t.Errorf("innocent buyer accused (accused: %v)", accused)
	}
}

// TestCoalitionMajority: majority voting keeps any modification two of the
// three colluders carry, so the forged copy is a superset of every
// colluder's fingerprint — each colluder matches 3 of its 4 surviving bits
// while the innocent buyer matches none. A 0.7 threshold implicates exactly
// the coalition.
func TestCoalitionMajority(t *testing.T) {
	a, r, copies := coalitionFixture(t)
	res, err := Coalition(copies, StrategyMajority)
	if err != nil {
		t.Fatal(err)
	}
	accused, fullRemoval := trace(t, r, a, res.Forged, 0.7)
	if fullRemoval {
		t.Fatal("majority merge cannot remove a bit shared by the whole coalition")
	}
	got := map[string]bool{}
	for _, n := range accused {
		got[n] = true
	}
	for _, want := range []string{"colluder1", "colluder2", "colluder3"} {
		if !got[want] {
			t.Errorf("%s evaded tracing (accused: %v)", want, accused)
		}
	}
	if got["innocent"] {
		t.Errorf("innocent buyer accused (accused: %v)", accused)
	}
}

// TestCoalitionIntersectSharedBit: pin intersection strips every detected
// site down to base form, but bits the whole coalition shares are never
// detected — the colluders all remain implicated.
func TestCoalitionIntersectSharedBit(t *testing.T) {
	a, r, copies := coalitionFixture(t)
	res, err := Coalition(copies, StrategyIntersect)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := sim.Compare(a.Circuit, res.Forged, sim.Random(len(a.Circuit.PIs), 32, 7))
	if err != nil {
		t.Fatal(err)
	}
	if mm != nil {
		t.Fatalf("intersect merge broke the function: %v", mm)
	}
	accused, fullRemoval := trace(t, r, a, res.Forged, 1.0)
	if fullRemoval {
		t.Fatal("shared bit at location 0 must survive an intersect merge")
	}
	got := map[string]bool{}
	for _, n := range accused {
		got[n] = true
	}
	for _, want := range []string{"colluder1", "colluder2", "colluder3"} {
		if !got[want] {
			t.Errorf("%s evaded tracing (accused: %v)", want, accused)
		}
	}
}

// TestCoalitionIntersectFullRemoval: on a complementary pair — fingerprints
// that disagree at every embedded location — intersection reconstructs the
// base form everywhere. The designer's report must classify the result as
// a full removal, not accuse anyone, and stay functionally correct.
func TestCoalitionIntersectFullRemoval(t *testing.T) {
	a := testAnalysis(t, "c432")
	bitsA, bitsB := complementBits(a, a.BitCapacity())
	asgA := mustAssign(t, a, bitsA)
	asgB := mustAssign(t, a, bitsB)
	r := registry.New(a)
	adopt(t, r, a, "buyerA", asgA)
	adopt(t, r, a, "buyerB", asgB)
	res, err := Coalition([]*circuit.Circuit{mustEmbed(t, a, asgA), mustEmbed(t, a, asgB)}, StrategyIntersect)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := sim.Compare(a.Circuit, res.Forged, sim.Random(len(a.Circuit.PIs), 32, 9))
	if err != nil {
		t.Fatal(err)
	}
	if mm != nil {
		t.Fatalf("intersect merge broke the function: %v", mm)
	}
	accused, fullRemoval := trace(t, r, a, res.Forged, 1.0)
	if !fullRemoval {
		t.Fatalf("complementary intersect should fully remove the fingerprint (accused: %v)", accused)
	}
	if len(accused) != 0 {
		t.Fatalf("full removal must not accuse anyone, got %v", accused)
	}
}

// TestCoalitionSingleCopy: every strategy degrades to a clean clone at k=1.
func TestCoalitionSingleCopy(t *testing.T) {
	a := testAnalysis(t, "c432")
	bitsA, _ := complementBits(a, 4)
	asgA := mustAssign(t, a, bitsA)
	cp := mustEmbed(t, a, asgA)
	r := registry.New(a)
	adopt(t, r, a, "buyerA", asgA)
	for _, st := range Strategies() {
		res, err := Coalition([]*circuit.Circuit{cp}, st)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if len(res.DetectedGates) != 0 {
			t.Fatalf("%v: single copy detected %v", st, res.DetectedGates)
		}
		name, err := r.TraceExact(a, res.Forged)
		if err != nil {
			t.Fatal(err)
		}
		if name != "buyerA" {
			t.Fatalf("%v: k=1 merge should still trace to buyerA, got %q", st, name)
		}
	}
}
