package redteam

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/sim"
)

func testAnalysis(t testing.TB, name string) *core.Analysis {
	t.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Locations) < 2 {
		t.Fatalf("%s: only %d locations", name, len(a.Locations))
	}
	return a
}

func mustAssign(t testing.TB, a *core.Analysis, bits []bool) core.Assignment {
	t.Helper()
	asg, err := a.AssignmentFromBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	return asg
}

func mustEmbed(t testing.TB, a *core.Analysis, asg core.Assignment) *circuit.Circuit {
	t.Helper()
	cp, err := core.Embed(a, asg)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// complementBits fingerprints two buyers with complementary bits on the
// first w locations and zeros elsewhere: every fingerprinted slot differs,
// so localization must surface all of them.
func complementBits(a *core.Analysis, w int) (bitsA, bitsB []bool) {
	n := a.BitCapacity()
	if w > n {
		w = n
	}
	bitsA = make([]bool, n)
	bitsB = make([]bool, n)
	for i := 0; i < w; i++ {
		bitsA[i] = i%2 == 0
		bitsB[i] = !bitsA[i]
	}
	return bitsA, bitsB
}

// TestAttackSubsetProperty: on an unhardened design with an unlimited
// budget, the attack strips exactly the attacked copy's true fingerprint
// sites — never more (soundness) — and the forged result is a functionally
// intact, fully anonymized copy.
func TestAttackSubsetProperty(t *testing.T) {
	a := testAnalysis(t, "c432")
	bitsA, bitsB := complementBits(a, a.BitCapacity())
	asgA := mustAssign(t, a, bitsA)
	asgB := mustAssign(t, a, bitsB)
	cpA := mustEmbed(t, a, asgA)
	cpB := mustEmbed(t, a, asgB)

	rep, err := Attack([]*circuit.Circuit{cpA, cpB}, AttackOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) == 0 {
		t.Fatal("no candidate sites localized")
	}
	ev := Evaluate(a, asgA, rep)
	if !ev.Subset || len(ev.FalseStrips) != 0 {
		t.Fatalf("stripped non-fingerprint sites: %v", ev.FalseStrips)
	}
	if ev.Unresolved != 0 {
		t.Fatalf("%d sites unresolved with an unlimited budget", ev.Unresolved)
	}
	if ev.BitsRecovered != ev.FingerprintBits {
		t.Fatalf("recovered %d of %d bits with an unlimited budget", ev.BitsRecovered, ev.FingerprintBits)
	}
	// The forged copy still computes the original function...
	mm, err := sim.Compare(a.Circuit, rep.Forged, sim.Random(len(a.Circuit.PIs), 32, 5))
	if err != nil {
		t.Fatal(err)
	}
	if mm != nil {
		t.Fatalf("forged copy broke the function: %v", mm)
	}
	// ...and carries no fingerprint at all: the designer sees a full
	// removal, the outcome the tracing argument concedes for this attacker.
	r := registry.New(a)
	adopt(t, r, a, "buyerA", asgA)
	adopt(t, r, a, "buyerB", asgB)
	if _, fullRemoval := trace(t, r, a, rep.Forged, 1.0); !fullRemoval {
		t.Fatal("complete strip of a complementary pair should read as full removal")
	}
}

// TestAttackDIPCertificate: the DIP loop must terminate immediately with an
// UNSAT certificate — ODC modifications are function-preserving, so no
// input/output experiment distinguishes any two configurations.
func TestAttackDIPCertificate(t *testing.T) {
	a := testAnalysis(t, "c432")
	bitsA, bitsB := complementBits(a, a.BitCapacity())
	cpA := mustEmbed(t, a, mustAssign(t, a, bitsA))
	cpB := mustEmbed(t, a, mustAssign(t, a, bitsB))
	rep, err := Attack([]*circuit.Circuit{cpA, cpB}, AttackOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.KeyBits == 0 {
		t.Fatal("keyed miter has no key bits")
	}
	if !rep.IOIndistinguishable {
		t.Fatal("expected an I/O-indistinguishability certificate")
	}
	if rep.DIPs != 0 {
		t.Fatalf("found %d DIPs against function-preserving modifications", rep.DIPs)
	}
}

// TestAttackSingleCopy: a lone copy gives the attacker nothing to diff;
// the attack degrades gracefully instead of failing.
func TestAttackSingleCopy(t *testing.T) {
	a := testAnalysis(t, "c432")
	bitsA, _ := complementBits(a, a.BitCapacity())
	asgA := mustAssign(t, a, bitsA)
	cpA := mustEmbed(t, a, asgA)
	rep, err := Attack([]*circuit.Circuit{cpA}, AttackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) != 0 || rep.KeyBits != 0 {
		t.Fatalf("single copy localized %d candidates", len(rep.Candidates))
	}
	ev := Evaluate(a, asgA, rep)
	if ev.BitsRecovered != 0 {
		t.Fatalf("single copy recovered %d bits", ev.BitsRecovered)
	}
	if _, err := tracePayload(a, asgA, rep.Forged); err != nil {
		t.Fatal(err)
	}
}

// tracePayload re-extracts the fingerprint from a forged copy; used to
// confirm the forgery is still a valid instance of the design.
func tracePayload(a *core.Analysis, asg core.Assignment, forged *circuit.Circuit) (core.Assignment, error) {
	got, _, err := core.ExtractTolerant(a, forged)
	if err != nil {
		return nil, err
	}
	_ = asg
	return got, nil
}

// TestHardenReducesBits: the point of the Harden knob. Fix the attacker's
// total conflict budget at double what the unhardened attack cost, then
// show decoy strip-proofs drain it before the true sites resolve — the
// attacker recovers strictly fewer fingerprint bits from hardened copies.
func TestHardenReducesBits(t *testing.T) {
	for _, name := range []string{"c432", "c880", "c1355"} {
		t.Run(name, func(t *testing.T) {
			a := testAnalysis(t, name)
			bitsA, bitsB := complementBits(a, 12)
			asgA := mustAssign(t, a, bitsA)
			asgB := mustAssign(t, a, bitsB)

			plain := []*circuit.Circuit{mustEmbed(t, a, asgA), mustEmbed(t, a, asgB)}
			repU, err := Attack(plain, AttackOptions{Seed: 9, MaxDIPs: -1})
			if err != nil {
				t.Fatal(err)
			}
			evU := Evaluate(a, asgA, repU)
			if evU.BitsRecovered == 0 {
				t.Fatal("unhardened baseline recovered nothing; test design broken")
			}

			budget := 2*repU.StripConflicts + 1000
			hopts := core.HardenOptions{Decoys: 8, Taps: 12}
			hopts.Seed = 101
			hA, decoysA, err := core.EmbedHardened(a, asgA, hopts)
			if err != nil {
				t.Fatal(err)
			}
			hopts.Seed = 202
			hB, _, err := core.EmbedHardened(a, asgB, hopts)
			if err != nil {
				t.Fatal(err)
			}
			if len(decoysA) == 0 {
				t.Fatal("no decoys inserted")
			}
			repH, err := Attack([]*circuit.Circuit{hA, hB}, AttackOptions{Seed: 9, MaxDIPs: -1, TotalBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			evH := Evaluate(a, asgA, repH)
			t.Logf("%s: unhardened %d/%d bits (%d conflicts); hardened %d/%d bits under budget %d (%d conflicts, exhausted=%v)",
				name, evU.BitsRecovered, evU.FingerprintBits, repU.StripConflicts,
				evH.BitsRecovered, evH.FingerprintBits, budget, repH.StripConflicts, repH.BudgetExhausted)
			if evH.BitsRecovered >= evU.BitsRecovered {
				t.Fatalf("hardening did not reduce recovery: %d ≥ %d", evH.BitsRecovered, evU.BitsRecovered)
			}
		})
	}
}
