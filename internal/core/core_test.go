package core

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

func lib() *cell.Library { return cell.Default() }

// fig1 is the paper's motivational circuit: F = (A·B)·(C+D).
func fig1(t testing.TB) *circuit.Circuit {
	c := circuit.New("fig1")
	a, _ := c.AddPI("A")
	b, _ := c.AddPI("B")
	d, _ := c.AddPI("C")
	e, _ := c.AddPI("D")
	x, _ := c.AddGate("X", logic.And, a, b)
	y, _ := c.AddGate("Y", logic.Or, d, e)
	f, _ := c.AddGate("F", logic.And, x, y)
	if err := c.AddPO("F", f); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAnalyzeFig1(t *testing.T) {
	c := fig1(t)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Locations) != 1 {
		t.Fatalf("found %d locations, want 1 (at F)", len(a.Locations))
	}
	loc := a.Locations[0]
	if c.Nodes[loc.Primary].Name != "F" {
		t.Errorf("primary = %q, want F", c.Nodes[loc.Primary].Name)
	}
	if got := c.Nodes[loc.FFCRoot].Name; got != "X" && got != "Y" {
		t.Errorf("FFC root = %q", got)
	}
	// Trigger must be the other fanin.
	if loc.Trigger == loc.FFCRoot {
		t.Error("trigger equals FFC root")
	}
	if loc.TriggerValue != false {
		t.Error("AND primary gate must trigger on 0")
	}
	if len(loc.Targets) != 1 {
		t.Fatalf("targets = %d, want 1", len(loc.Targets))
	}
	tgt := loc.Targets[0]
	if tgt.Gate != loc.FFCRoot {
		t.Error("canonical target should be the cone root here")
	}
	// The catalogue must contain the paper's Fig. 1 modification: positive
	// trigger literal appended to the root AND.
	found := false
	for _, v := range tgt.Variants {
		if v.Kind == AddLiteral && len(v.Lits) == 1 && v.Lits[0].Node == loc.Trigger && !v.Lits[0].Neg {
			found = true
		}
	}
	if !found {
		t.Errorf("Fig. 1 modification missing from catalogue: %+v", tgt.Variants)
	}
}

func TestEmbedFig1MatchesPaper(t *testing.T) {
	c := fig1(t)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := EmbedAll(a)
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent function.
	eq, mm, err := sim.EquivalentExhaustive(c, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("fingerprinted circuit differs: %v", mm)
	}
	// The modified gate should now read three signals.
	root := a.Locations[0].FFCRoot
	name := c.Nodes[root].Name
	id, ok := fp.Lookup(name)
	if !ok {
		t.Fatal("root gate missing")
	}
	if len(fp.Nodes[id].Fanin) != 3 {
		t.Errorf("root gate fanin = %d, want 3 (trigger literal added)", len(fp.Nodes[id].Fanin))
	}
	// And the original is untouched.
	if len(c.Nodes[root].Fanin) != 2 {
		t.Error("original circuit mutated by Embed")
	}
}

// TestFig1AllVariantsDistinctAndEquivalent mirrors the paper's Figs. 1–2:
// the motivational circuit admits several distinct fingerprinted
// implementations of the same function. Every configuration of the single
// location must be (a) functionally identical to the original and (b)
// structurally distinguishable from every other configuration via Extract.
func TestFig1AllVariantsDistinctAndEquivalent(t *testing.T) {
	c := fig1(t)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Locations) != 1 {
		t.Fatalf("%d locations", len(a.Locations))
	}
	total := a.Combinations().Int64()
	if total < 2 {
		t.Fatalf("only %d configurations", total)
	}
	seen := map[string]int64{}
	for v := int64(0); v < total; v++ {
		asg, err := a.AssignmentFromInt(big.NewInt(v))
		if err != nil {
			t.Fatal(err)
		}
		fp, err := Embed(a, asg)
		if err != nil {
			t.Fatal(err)
		}
		eq, mm, err := sim.EquivalentExhaustive(c, fp)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("configuration %d changed the function: %v", v, mm)
		}
		// Structural distinctness: the canonical netlist string is unique.
		key := fp.String()
		if prev, dup := seen[key]; dup {
			t.Fatalf("configurations %d and %d are structurally identical", prev, v)
		}
		seen[key] = v
		// And extraction identifies exactly this configuration.
		got, err := Extract(a, fp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := a.IntFromAssignment(got)
		if err != nil {
			t.Fatal(err)
		}
		if back.Int64() != v {
			t.Fatalf("configuration %d extracted as %d", v, back.Int64())
		}
	}
	t.Logf("Fig. 1 location admits %d distinct equivalent implementations (paper shows 4 across Figs. 1–2)", total)
}

func TestExtractRoundTripFig1(t *testing.T) {
	c := fig1(t)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	for _, modify := range []bool{false, true} {
		asg := EmptyAssignment(a)
		if modify {
			asg[0][0] = 0
		}
		fp, err := Embed(a, asg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Extract(a, fp)
		if err != nil {
			t.Fatal(err)
		}
		if got[0][0] != asg[0][0] {
			t.Errorf("modify=%v: extracted %d, want %d", modify, got[0][0], asg[0][0])
		}
		// Heredity: extraction from a verbatim copy (clone) still works.
		got2, err := Extract(a, fp.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if got2[0][0] != asg[0][0] {
			t.Error("heredity violated: clone lost the fingerprint")
		}
	}
}

// randomMapped builds a random circuit using only default-library gates.
func randomMapped(rng *rand.Rand, nPI, nGates int) *circuit.Circuit {
	c := circuit.New("rand")
	ids := make([]circuit.NodeID, 0, nPI+nGates)
	for i := 0; i < nPI; i++ {
		id, _ := c.AddPI("pi" + itoa(i))
		ids = append(ids, id)
	}
	kinds := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor, logic.Inv, logic.Buf}
	for g := 0; g < nGates; g++ {
		k := kinds[rng.Intn(len(kinds))]
		n := k.MinFanin()
		if (k == logic.And || k == logic.Or || k == logic.Nand || k == logic.Nor) && rng.Intn(3) == 0 {
			n += rng.Intn(2)
		}
		fanin := make([]circuit.NodeID, 0, n)
		seen := map[circuit.NodeID]bool{}
		// Bias toward recent nodes for depth.
		for len(fanin) < n {
			idx := len(ids) - 1 - rng.Intn(min(len(ids), 8))
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
		id, err := c.AddGate("g"+itoa(g), k, fanin...)
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	// POs: last node plus a few random ones.
	if err := c.AddPO("out0", ids[len(ids)-1]); err != nil {
		panic(err)
	}
	if err := c.AddPO("out1", ids[nPI+rng.Intn(nGates)]); err != nil {
		panic(err)
	}
	sw, _ := c.Sweep()
	return sw
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestEmbedPreservesFunction is the central property test (DESIGN.md #1/#2):
// for random circuits and random assignments, the fingerprinted instance is
// exhaustively equivalent to the original and Extract round-trips.
func TestEmbedPreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomMapped(rng, 4+rng.Intn(3), 15+rng.Intn(25))
		a, err := Analyze(c, DefaultOptions(lib()))
		if err != nil {
			t.Logf("seed %d: analyze: %v", seed, err)
			return false
		}
		if len(a.Locations) == 0 {
			return true // nothing to test on this sample
		}
		// Random assignment across the full catalogue.
		asg := EmptyAssignment(a)
		for i := range a.Locations {
			for j := range a.Locations[i].Targets {
				nv := len(a.Locations[i].Targets[j].Variants)
				asg[i][j] = rng.Intn(nv+1) - 1
			}
		}
		fp, err := Embed(a, asg)
		if err != nil {
			t.Logf("seed %d: embed: %v", seed, err)
			return false
		}
		if err := fp.Validate(); err != nil {
			t.Logf("seed %d: invalid embed: %v", seed, err)
			return false
		}
		eq, mm, err := sim.EquivalentExhaustive(c, fp)
		if err != nil {
			t.Logf("seed %d: sim: %v", seed, err)
			return false
		}
		if !eq {
			t.Logf("seed %d: FUNCTION CHANGED: %v\nassignment %v", seed, mm, asg)
			return false
		}
		got, err := Extract(a, fp)
		if err != nil {
			t.Logf("seed %d: extract: %v", seed, err)
			return false
		}
		for i := range asg {
			for j := range asg[i] {
				if got[i][j] != asg[i][j] {
					t.Logf("seed %d: extract mismatch at %d/%d: got %d want %d", seed, i, j, got[i][j], asg[i][j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDistinctFingerprintsDistinctNetlists: different assignments must
// produce structurally distinguishable instances (requirement 2).
func TestDistinctFingerprintsDistinctNetlists(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomMapped(rng, 5, 30)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Locations) < 2 {
		t.Skip("sample circuit too small")
	}
	asg1 := EmptyAssignment(a)
	asg1[0][0] = 0
	asg2 := EmptyAssignment(a)
	asg2[1][0] = 0
	fp1, err := Embed(a, asg1)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := Embed(a, asg2)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := Extract(a, fp1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Extract(a, fp2)
	if err != nil {
		t.Fatal(err)
	}
	if e1[0][0] != 0 || e1[1][0] != -1 || e2[0][0] != -1 || e2[1][0] != 0 {
		t.Errorf("fingerprints not distinct: %v vs %v", e1, e2)
	}
}

func TestWorkingEnableDisable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomMapped(rng, 5, 30)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Locations) == 0 {
		t.Skip("no locations in sample")
	}
	w, err := NewWorking(a, FullAssignment(a))
	if err != nil {
		t.Fatal(err)
	}
	if w.ActiveCount() != len(a.Locations) {
		t.Fatalf("active = %d, want %d", w.ActiveCount(), len(a.Locations))
	}
	// Disable everything: snapshot must equal the original functionally and
	// in gate count.
	for i := range w.Mods {
		if err := w.Disable(i); err != nil {
			t.Fatalf("disable %d: %v", i, err)
		}
	}
	if w.ActiveCount() != 0 {
		t.Error("ActiveCount after full disable")
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumGates() != c.NumGates() {
		t.Errorf("disabled snapshot has %d gates, original %d", snap.NumGates(), c.NumGates())
	}
	eq, _, err := sim.EquivalentExhaustive(c, snap)
	if err != nil || !eq {
		t.Fatal("disabled snapshot not equivalent to original")
	}
	// Re-enable everything: snapshot must match a fresh full embed.
	for i := range w.Mods {
		if err := w.Enable(i); err != nil {
			t.Fatalf("enable %d: %v", i, err)
		}
	}
	snap2, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	full, err := EmbedAll(a)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.NumGates() != full.NumGates() {
		t.Errorf("re-enabled snapshot %d gates, fresh embed %d", snap2.NumGates(), full.NumGates())
	}
	eq, _, err = sim.EquivalentExhaustive(c, snap2)
	if err != nil || !eq {
		t.Fatal("re-enabled snapshot not equivalent")
	}
	// Toggling twice is idempotent.
	if err := w.Disable(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Disable(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Enable(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Enable(0); err != nil {
		t.Fatal(err)
	}
	if err := w.C.Validate(); err != nil {
		t.Fatalf("working circuit invalid after toggling: %v", err)
	}
	// Assignment reflects active set.
	if err := w.Disable(0); err != nil {
		t.Fatal(err)
	}
	asg := w.Assignment()
	m := w.Mods[0]
	if asg[m.Loc][m.Target] != -1 {
		t.Error("Assignment does not reflect disabled mod")
	}
}

func TestWorkingClone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomMapped(rng, 5, 30)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Locations) < 2 {
		t.Skip("too few locations in sample")
	}
	w, err := NewWorking(a, FullAssignment(a))
	if err != nil {
		t.Fatal(err)
	}
	// Park a helper so the clone must carry the park node too.
	if err := w.Disable(0); err != nil {
		t.Fatal(err)
	}
	cl := w.Clone()
	if cl.ActiveCount() != w.ActiveCount() {
		t.Fatalf("clone active %d, original %d", cl.ActiveCount(), w.ActiveCount())
	}
	if got, want := cl.C.String(), w.C.String(); got != want {
		t.Fatal("clone netlist differs from original")
	}
	// Toggling the clone must not touch the original.
	before := w.C.String()
	if err := cl.Disable(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Enable(0); err != nil {
		t.Fatal(err)
	}
	if w.C.String() != before {
		t.Fatal("clone toggle mutated the original netlist")
	}
	if w.Active(1) != true || cl.Active(1) != false {
		t.Fatal("active flags shared between clone and original")
	}
	// And vice versa: the original's toggles leave the clone alone.
	cb := cl.C.String()
	if err := w.Disable(1); err != nil {
		t.Fatal(err)
	}
	if cl.C.String() != cb {
		t.Fatal("original toggle mutated the clone")
	}
	if err := cl.C.Validate(); err != nil {
		t.Fatalf("clone invalid after toggling: %v", err)
	}
	// A clone snapshot with the same active set matches a fresh embed.
	snap, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Embed(a, cl.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumGates() != direct.NumGates() {
		t.Errorf("clone snapshot %d gates, direct embed %d", snap.NumGates(), direct.NumGates())
	}
}

func TestIntRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := randomMapped(rng, 5, 40)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Locations) == 0 {
		t.Skip("no locations")
	}
	combos := a.Combinations()
	if combos.Sign() <= 0 {
		t.Fatal("non-positive combination count")
	}
	// Round-trip several random values.
	for trial := 0; trial < 20; trial++ {
		v := new(big.Int).Rand(rng, combos)
		asg, err := a.AssignmentFromInt(v)
		if err != nil {
			t.Fatal(err)
		}
		back, err := a.IntFromAssignment(asg)
		if err != nil {
			t.Fatal(err)
		}
		if back.Cmp(v) != 0 {
			t.Fatalf("int round trip: %s → %s", v, back)
		}
	}
	// Out-of-range rejected.
	if _, err := a.AssignmentFromInt(combos); err == nil {
		t.Error("value == Combinations() accepted")
	}
	if _, err := a.AssignmentFromInt(big.NewInt(-1)); err == nil {
		t.Error("negative value accepted")
	}
	// Capacity consistency: log2(combos) ≈ Capacity().Log2Combos.
	cap := a.Capacity()
	bits := float64(combos.BitLen() - 1)
	if cap.Log2Combos < bits-1 || cap.Log2Combos > bits+1 {
		t.Errorf("Log2Combos %.2f vs BitLen-1 %.0f", cap.Log2Combos, bits)
	}
	if cap.Locations != len(a.Locations) || cap.Targets < cap.Locations {
		t.Errorf("capacity shape: %+v", cap)
	}
}

func TestBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := randomMapped(rng, 5, 40)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	n := a.BitCapacity()
	if n == 0 {
		t.Skip("no locations")
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = rng.Intn(2) == 1
	}
	asg, err := a.AssignmentFromBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Embed(a, asg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Extract(a, fp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := a.BitsFromAssignment(got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if back[i] != bits[i] {
			t.Fatalf("bit %d flipped", i)
		}
	}
	// Too many bits rejected.
	if _, err := a.AssignmentFromBits(make([]bool, n+1)); err == nil {
		t.Error("oversized bit string accepted")
	}
}

func TestTamperDetection(t *testing.T) {
	c := fig1(t)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := EmbedAll(a)
	if err != nil {
		t.Fatal(err)
	}
	// An adversary rewires the modified gate in a non-catalogued way.
	root := fp.MustLookup(c.Nodes[a.Locations[0].FFCRoot].Name)
	if err := fp.SetKind(root, logic.Nand); err != nil {
		t.Fatal(err)
	}
	if _, err := Extract(a, fp); err == nil {
		t.Error("tampered gate not detected")
	}
	// A missing gate is detected too.
	fp2 := circuit.New("empty")
	if _, err := fp2.AddPI("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := Extract(a, fp2); err == nil {
		t.Error("missing gates not detected")
	}
}

func TestOverheadPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := randomMapped(rng, 6, 60)
	r, err := Fingerprint(c, lib(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Analysis.NumLocations() == 0 {
		t.Skip("no locations")
	}
	if r.Overhead.Area <= 0 {
		t.Errorf("area overhead %g, expected > 0 after modifications", r.Overhead.Area)
	}
	if r.Overhead.Power <= 0 {
		t.Errorf("power overhead %g, expected > 0", r.Overhead.Power)
	}
	if r.Overhead.Delay < 0 {
		t.Errorf("negative delay overhead %g", r.Overhead.Delay)
	}
	if r.Modified.Gates < r.Base.Gates {
		t.Error("gate count decreased")
	}
	if _, err := r.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestFingerprintWithValue(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	c := randomMapped(rng, 5, 40)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Locations) == 0 {
		t.Skip("no locations")
	}
	v := big.NewInt(12345)
	v.Mod(v, a.Combinations())
	r, err := Fingerprint(c, lib(), v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Extract(r.Analysis, r.Fingerprinted)
	if err != nil {
		t.Fatal(err)
	}
	back, err := r.Analysis.IntFromAssignment(got)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cmp(v) != 0 {
		t.Errorf("fingerprint value round trip: %s → %s", v, back)
	}
}

func TestTargetsDisjointAcrossLocations(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := randomMapped(rng, 6, 80)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[circuit.NodeID]int{}
	for i := range a.Locations {
		for _, tg := range a.Locations[i].Targets {
			if prev, dup := seen[tg.Gate]; dup {
				t.Fatalf("gate %q is a target of locations %d and %d", c.Nodes[tg.Gate].Name, prev, i)
			}
			seen[tg.Gate] = i
		}
	}
}

func TestLocationLegality(t *testing.T) {
	// Definition 1's criteria hold for every reported location.
	rng := rand.New(rand.NewSource(43))
	c := randomMapped(rng, 6, 80)
	a, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Locations {
		loc := &a.Locations[i]
		p := &c.Nodes[loc.Primary]
		// Criterion 4: primary is ODC-capable.
		if !p.Kind.ODCCapable() {
			t.Errorf("loc %d: primary %v not ODC capable", i, p.Kind)
		}
		// Criterion 1: Y is not a PI.
		if c.Nodes[loc.FFCRoot].IsPI {
			t.Errorf("loc %d: FFC root is a PI", i)
		}
		// Criterion 2: Y fans out only into the primary gate.
		if c.FanoutCount(loc.FFCRoot) != 1 {
			t.Errorf("loc %d: FFC root fanout %d", i, c.FanoutCount(loc.FFCRoot))
		}
		if fo := c.Nodes[loc.FFCRoot].Fanout(); len(fo) != 1 || fo[0] != loc.Primary {
			t.Errorf("loc %d: FFC root does not feed the primary gate", i)
		}
		// Pins consistent.
		if p.Fanin[loc.FFCPin] != loc.FFCRoot || p.Fanin[loc.TriggerPin] != loc.Trigger {
			t.Errorf("loc %d: pin bookkeeping wrong", i)
		}
		if loc.FFCPin == loc.TriggerPin {
			t.Errorf("loc %d: trigger pin equals FFC pin", i)
		}
		// Trigger value is the controlling value.
		cv, ok := p.Kind.ControllingValue()
		if !ok || cv != loc.TriggerValue {
			t.Errorf("loc %d: trigger value %v vs controlling %v", i, loc.TriggerValue, cv)
		}
		// Criterion 3: every target is in the cone and is a legal kind.
		inCone := map[circuit.NodeID]bool{}
		for _, n := range loc.Cone {
			inCone[n] = true
		}
		for _, tg := range loc.Targets {
			if !inCone[tg.Gate] {
				t.Errorf("loc %d: target outside cone", i)
			}
			if !c.Nodes[tg.Gate].Kind.FingerprintTarget(false) {
				t.Errorf("loc %d: target kind %v illegal", i, c.Nodes[tg.Gate].Kind)
			}
			if len(tg.Variants) == 0 {
				t.Errorf("loc %d: target with no variants", i)
			}
		}
		if loc.Configs() < 2 {
			t.Errorf("loc %d: Configs = %g < 2", i, loc.Configs())
		}
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	c := circuit.New("bad")
	if _, err := Analyze(c, DefaultOptions(lib())); err == nil {
		t.Error("empty circuit accepted")
	}
	c2 := fig1(t)
	if _, err := Analyze(c2, Options{}); err == nil {
		t.Error("missing library accepted")
	}
}

func TestVariantKindString(t *testing.T) {
	if AddLiteral.String() != "add-literal" || ConvertSingle.String() != "convert-single" || Reroute.String() != "reroute" {
		t.Error("VariantKind strings")
	}
	if VariantKind(9).String() == "" {
		t.Error("unknown VariantKind string empty")
	}
}

func TestConvertSingleVariants(t *testing.T) {
	// Circuit with an inverter inside the cone: P = AND(inv, X),
	// inv = INV(g), g = OR(a, b) — cone {inv, g}; inv and g are targets.
	c := circuit.New("conv")
	a, _ := c.AddPI("a")
	b, _ := c.AddPI("b")
	x, _ := c.AddPI("x")
	g, _ := c.AddGate("g", logic.Or, a, b)
	inv, _ := c.AddGate("inv", logic.Inv, g)
	p, _ := c.AddGate("p", logic.And, inv, x)
	if err := c.AddPO("o", p); err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Locations) != 1 {
		t.Fatalf("locations = %d", len(an.Locations))
	}
	loc := an.Locations[0]
	if len(loc.Targets) != 2 {
		t.Fatalf("targets = %d, want 2 (inv and g)", len(loc.Targets))
	}
	// Canonical (deepest) target is the inverter.
	if loc.Targets[0].Gate != inv {
		t.Error("deepest target should be the inverter")
	}
	// INV gets two conversion variants (NAND and NOR forms).
	kinds := map[logic.Kind]bool{}
	for _, v := range loc.Targets[0].Variants {
		if v.Kind != ConvertSingle {
			t.Errorf("inverter variant kind %v", v.Kind)
		}
		kinds[v.NewGateKind] = true
	}
	if !kinds[logic.Nand] || !kinds[logic.Nor] {
		t.Errorf("conversion kinds = %v, want NAND and NOR", kinds)
	}
	// Every variant embeds to an equivalent circuit and extracts back.
	for j := range loc.Targets {
		for v := range loc.Targets[j].Variants {
			asg := EmptyAssignment(an)
			asg[0][j] = v
			fp, err := Embed(an, asg)
			if err != nil {
				t.Fatalf("embed %d/%d: %v", j, v, err)
			}
			eq, mm, err := sim.EquivalentExhaustive(c, fp)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatalf("variant %d/%d changed function: %v", j, v, mm)
			}
			got, err := Extract(an, fp)
			if err != nil {
				t.Fatal(err)
			}
			if got[0][j] != v {
				t.Errorf("variant %d/%d extracted as %d", j, v, got[0][j])
			}
		}
	}
}

func TestRerouteVariants(t *testing.T) {
	// Fig. 5 shape: two ANDs in series, OR in the cone.
	// P = AND(Y, X); X = AND(A, B); Y = OR(C, D) (fans out only to P).
	c := circuit.New("fig5")
	a, _ := c.AddPI("A")
	b, _ := c.AddPI("B")
	d, _ := c.AddPI("C")
	e, _ := c.AddPI("D")
	x, _ := c.AddGate("X", logic.And, a, b)
	y, _ := c.AddGate("Y", logic.Or, d, e)
	p, _ := c.AddGate("P", logic.And, y, x)
	if err := c.AddPO("o", p); err != nil {
		t.Fatal(err)
	}
	// Force the trigger to be X by loading Y... both X and Y fan out once;
	// deepest fanin wins as Y-root (tie → first). To make the test
	// deterministic, check which got chosen and adapt.
	an, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Locations) != 1 {
		t.Fatalf("locations = %d", len(an.Locations))
	}
	loc := an.Locations[0]
	if c.Nodes[loc.Trigger].IsPI {
		t.Fatal("trigger should be a gate here")
	}
	// Reroute variants must exist: trigger driver is AND, primary AND
	// (non-trigger X=1 forces A=B=1).
	var reroutes []Variant
	for _, v := range loc.Targets[0].Variants {
		if v.Kind == Reroute {
			reroutes = append(reroutes, v)
		}
	}
	// n=2 inputs → n(n+1)/2 = 3 variants.
	if len(reroutes) != 3 {
		t.Fatalf("reroute variants = %d, want 3 (n(n+1)/2 with n=2)", len(reroutes))
	}
	// All variants equivalence-preserving + extractable.
	for j := range loc.Targets {
		for v := range loc.Targets[j].Variants {
			asg := EmptyAssignment(an)
			asg[0][j] = v
			fp, err := Embed(an, asg)
			if err != nil {
				t.Fatalf("embed variant %d/%d: %v", j, v, err)
			}
			eq, mm, err := sim.EquivalentExhaustive(c, fp)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatalf("reroute variant %d/%d changed function: %v (%+v)", j, v, mm, loc.Targets[j].Variants[v])
			}
			got, err := Extract(an, fp)
			if err != nil {
				t.Fatal(err)
			}
			if got[0][j] != v {
				t.Errorf("variant %d/%d extracted as %d", j, v, got[0][j])
			}
		}
	}
}

func TestNoLocationsOnXorCircuit(t *testing.T) {
	// A parity tree has no controlling-value gates → no locations.
	c := circuit.New("parity")
	a, _ := c.AddPI("a")
	b, _ := c.AddPI("b")
	d, _ := c.AddPI("d")
	x1, _ := c.AddGate("x1", logic.Xor, a, b)
	x2, _ := c.AddGate("x2", logic.Xor, x1, d)
	if err := c.AddPO("o", x2); err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(c, DefaultOptions(lib()))
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Locations) != 0 {
		t.Errorf("XOR tree produced %d locations", len(an.Locations))
	}
	if an.Capacity().Log2Combos != 0 {
		t.Error("capacity should be zero")
	}
}

func TestTriggerPolicy(t *testing.T) {
	// Primary gate with a deep and a shallow non-FFC input: the policy
	// decides which becomes the trigger.
	c := circuit.New("tp")
	a1, _ := c.AddPI("a")
	b1, _ := c.AddPI("b")
	x1, _ := c.AddPI("x")
	deep1, _ := c.AddGate("deep1", logic.Nand, a1, b1)
	deep2, _ := c.AddGate("deep2", logic.Nand, deep1, a1)
	cone, _ := c.AddGate("cone", logic.Or, a1, b1)
	p, _ := c.AddGate("p", logic.And, cone, x1, deep2)
	if err := c.AddPO("o", p); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPO("o2", deep2); err != nil {
		t.Fatal(err)
	}
	// deep2 drives a PO so it is not fanout-free: "cone" is the only FFC
	// fanin; triggers available: x (level 0) and deep2 (level 2).
	shallow := DefaultOptions(lib())
	aS, err := Analyze(c, shallow)
	if err != nil {
		t.Fatal(err)
	}
	deepOpts := DefaultOptions(lib())
	deepOpts.Trigger = DeepestTrigger
	aD, err := Analyze(c, deepOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(aS.Locations) != 1 || len(aD.Locations) != 1 {
		t.Fatalf("locations: %d / %d", len(aS.Locations), len(aD.Locations))
	}
	if got := c.Nodes[aS.Locations[0].Trigger].Name; got != "x" {
		t.Errorf("shallowest policy picked %q, want x", got)
	}
	if got := c.Nodes[aD.Locations[0].Trigger].Name; got != "deep2" {
		t.Errorf("deepest policy picked %q, want deep2", got)
	}
	// Both embed to equivalent circuits.
	for _, an := range []*Analysis{aS, aD} {
		fp, err := EmbedAll(an)
		if err != nil {
			t.Fatal(err)
		}
		eq, mm, err := sim.EquivalentExhaustive(c, fp)
		if err != nil || !eq {
			t.Fatalf("policy embed changed function: %v %v", mm, err)
		}
	}
}

func TestMaxTargetsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	c := randomMapped(rng, 6, 80)
	opts := DefaultOptions(lib())
	opts.MaxTargetsPerLocation = 1
	a, err := Analyze(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Locations {
		if len(a.Locations[i].Targets) > 1 {
			t.Fatalf("location %d has %d targets despite cap", i, len(a.Locations[i].Targets))
		}
	}
}
