package watermark

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cec"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/redteam"
)

func analyzed(t testing.TB, name string) *core.Analysis {
	t.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPlanDeterministicAndKeyed(t *testing.T) {
	a := analyzed(t, "c880")
	p := Params{Key: []byte("designer-secret"), Slots: 12}
	m1, err := Plan(a, p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Plan(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Slots) != 12 || m1.Bits <= 0 {
		t.Fatalf("mark shape: %d slots, %f bits", len(m1.Slots), m1.Bits)
	}
	for i := range m1.Slots {
		if m1.Slots[i] != m2.Slots[i] {
			t.Fatal("same key produced different plans")
		}
	}
	m3, err := Plan(a, Params{Key: []byte("other-key"), Slots: 12})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range m1.Slots {
		if m1.Slots[i] != m3.Slots[i] {
			same = false
		}
	}
	if same {
		t.Error("different keys produced identical slot selections")
	}
	// Slots must be distinct.
	seen := map[core.SlotRef]bool{}
	for _, s := range m1.Slots {
		if seen[s] {
			t.Fatal("duplicate slot in plan")
		}
		seen[s] = true
	}
}

func TestCanonicalOnlyPlan(t *testing.T) {
	a := analyzed(t, "c880")
	p := Params{Key: []byte("fuse-key"), Slots: 9, CanonicalOnly: true}
	m, err := Plan(a, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Slots {
		if s.Target != 0 {
			t.Fatalf("canonical-only plan chose target %d", s.Target)
		}
		if m.Assignment[s.Loc][s.Target] != 0 {
			t.Fatalf("canonical-only plan chose variant %d", m.Assignment[s.Loc][s.Target])
		}
	}
	if m.Bits != 9 {
		t.Errorf("canonical-only bits = %g, want 9", m.Bits)
	}
	// Embedded and verified end to end.
	cp, err := core.Embed(a, m.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Verify(a, p, cp)
	if err != nil {
		t.Fatal(err)
	}
	if e.Matched != 9 || e.MatchedBits != 9 {
		t.Errorf("verify = %d matched / %g bits", e.Matched, e.MatchedBits)
	}
	// Slots must cover distinct locations (one canonical slot each).
	seen := map[int]bool{}
	for _, s := range m.Slots {
		if seen[s.Loc] {
			t.Fatal("duplicate location in canonical-only plan")
		}
		seen[s.Loc] = true
	}
}

func TestPlanValidation(t *testing.T) {
	a := analyzed(t, "c432")
	if _, err := Plan(a, Params{Key: nil, Slots: 2}); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := Plan(a, Params{Key: []byte("k"), Slots: 0}); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := Plan(a, Params{Key: []byte("k"), Slots: a.TotalTargets() + 1}); err == nil {
		t.Error("oversubscription accepted")
	}
}

func TestEmbedVerifyRoundTrip(t *testing.T) {
	a := analyzed(t, "c880")
	p := Params{Key: []byte("k1"), Slots: 10}
	m, err := Plan(a, p)
	if err != nil {
		t.Fatal(err)
	}
	marked, err := core.Embed(a, m.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	// Watermarked copy stays functionally identical.
	v, err := cec.Check(a.Circuit, marked, cec.DefaultOptions())
	if err != nil || !v.Equivalent {
		t.Fatal("watermark changed the function")
	}
	// Verification over the pirated (cloned) copy: full match.
	e, err := Verify(a, p, marked.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if e.Matched != e.Total || e.Total != 10 {
		t.Fatalf("verify: %d/%d", e.Matched, e.Total)
	}
	if !e.Equivalent {
		t.Error("evidence must attest the recovered assignment equivalent (Requirement 1)")
	}
	if e.MatchedBits < 10 {
		t.Errorf("evidence strength only %.1f bits", e.MatchedBits)
	}
	// A clean (unwatermarked) design matches nothing.
	e2, err := Verify(a, p, a.Circuit.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if e2.Matched != 0 {
		t.Errorf("clean design matched %d watermark slots", e2.Matched)
	}
	// The wrong key does not validate a watermarked copy (beyond chance).
	e3, err := Verify(a, Params{Key: []byte("wrong"), Slots: 10}, marked)
	if err != nil {
		t.Fatal(err)
	}
	if e3.Matched == e3.Total {
		t.Error("wrong key fully matched")
	}
	if e.Fraction() != 1.0 || e2.Fraction() != 0.0 {
		t.Error("fractions wrong")
	}
}

func TestMergeWithBuyerFingerprint(t *testing.T) {
	a := analyzed(t, "c880")
	p := Params{Key: []byte("k2"), Slots: 8}
	m, err := Plan(a, p)
	if err != nil {
		t.Fatal(err)
	}
	free := m.FreeLocations(a)
	if len(free) == 0 {
		t.Skip("no free locations")
	}
	// Buyer fingerprint on the free locations.
	fp := core.EmptyAssignment(a)
	rng := rand.New(rand.NewSource(3))
	for _, li := range free {
		if rng.Intn(2) == 1 {
			fp[li][0] = 0
		}
	}
	merged, err := m.Merge(fp)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.Embed(a, merged)
	if err != nil {
		t.Fatal(err)
	}
	// Both the watermark and the fingerprint are recoverable.
	e, err := Verify(a, p, cp)
	if err != nil {
		t.Fatal(err)
	}
	if e.Matched != e.Total {
		t.Fatalf("watermark damaged by fingerprint: %d/%d", e.Matched, e.Total)
	}
	got, err := core.Extract(a, cp)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range free {
		if got[li][0] != fp[li][0] {
			t.Fatalf("buyer bit at location %d corrupted", li)
		}
	}
	// A colliding fingerprint is rejected.
	bad := core.EmptyAssignment(a)
	bad[m.Slots[0].Loc][m.Slots[0].Target] = 0
	if _, err := m.Merge(bad); err == nil {
		t.Error("fingerprint colliding with watermark accepted")
	}
}

// TestWatermarkSurvivesCollusion: every buyer's copy shares the watermark,
// so the collusion attack cannot even see it (§III-E interplay).
func TestWatermarkSurvivesCollusion(t *testing.T) {
	a := analyzed(t, "c880")
	p := Params{Key: []byte("k3"), Slots: 10}
	m, err := Plan(a, p)
	if err != nil {
		t.Fatal(err)
	}
	free := m.FreeLocations(a)
	if len(free) < 8 {
		t.Skip("not enough free locations")
	}
	rng := rand.New(rand.NewSource(17))
	copies := make([]*circuit.Circuit, 3)
	for i := range copies {
		fp := core.EmptyAssignment(a)
		for _, li := range free {
			if rng.Intn(2) == 1 {
				fp[li][0] = 0
			}
		}
		merged, err := m.Merge(fp)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := core.Embed(a, merged)
		if err != nil {
			t.Fatal(err)
		}
		copies[i] = cp
	}
	res, err := redteam.Coalition(copies, redteam.StrategyFewestPins)
	if err != nil {
		t.Fatal(err)
	}
	// The coalition found and reset the *fingerprint* sites where its
	// copies differ — but the watermark, shared by all copies, survives
	// fully intact in the forged instance.
	e, err := Verify(a, p, res.Forged)
	if err != nil {
		t.Fatal(err)
	}
	if e.Matched != e.Total {
		t.Fatalf("collusion damaged the watermark: %d/%d slots survive", e.Matched, e.Total)
	}
	// Sanity: the attack did detect and reset some fingerprint sites.
	if len(res.DetectedGates) == 0 {
		t.Error("collusion found nothing; test vacuous")
	}
}
