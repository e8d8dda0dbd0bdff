package core

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cec"
	"repro/internal/cell"
	"repro/internal/sim"
)

func analyzeBench(t *testing.T, name string) *Analysis {
	t.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(spec.Build(), DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// randomAssignment draws a uniform assignment over the catalogue: each
// (location, target) slot independently unmodified or one of its variants.
func randomAssignment(rng *rand.Rand, a *Analysis) Assignment {
	asg := EmptyAssignment(a)
	for i := range a.Locations {
		for j := range a.Locations[i].Targets {
			n := len(a.Locations[i].Targets[j].Variants)
			asg[i][j] = rng.Intn(n+1) - 1
		}
	}
	return asg
}

// TestSessionVerdictsMatchCheck is the randomized property required by the
// incremental engine: on several benchmarks, session verdicts across ≥100
// random fingerprint assignments must match a fresh one-shot cec.Check of
// the materialized instance, and every catalogued assignment must verify
// equivalent (Requirement 1). The session is built directly, since the
// verifier now runs on window certificates; the certificate path gets the
// same asserts through NewVerifier.
func TestSessionVerdictsMatchCheck(t *testing.T) {
	benches := []string{"c432", "c499", "c880"}
	perBench := 40 // 3 × 40 = 120 assignments ≥ 100
	if testing.Short() {
		perBench = 6
	}
	for _, name := range benches {
		name := name
		t.Run(name, func(t *testing.T) {
			a := analyzeBench(t, name)
			sess, err := cec.NewSession(a.Circuit, a.Slots(), cec.DefaultOptions())
			if err != nil {
				t.Fatalf("%s: session construction failed: %v", name, err)
			}
			ver := NewVerifier(a)
			rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
			for k := 0; k < perBench; k++ {
				asg := randomAssignment(rng, a)
				choice, err := a.SlotChoice(asg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sess.Verify(choice)
				if err != nil {
					t.Fatalf("assignment %d: %v", k, err)
				}
				if !got.Equivalent {
					t.Fatalf("assignment %d: catalogued modification not equivalent (PO %q, cex %v)",
						k, got.PO, got.Counterexample)
				}
				cert, err := ver.Verify(asg)
				if err != nil {
					t.Fatalf("assignment %d: certificate path: %v", k, err)
				}
				if cert.Equivalent != got.Equivalent || cert.Proved != got.Proved {
					t.Fatalf("assignment %d: certificate (%v,%v) vs session (%v,%v)",
						k, cert.Equivalent, cert.Proved, got.Equivalent, got.Proved)
				}
				// Cross-check a subsample against the one-shot path (every
				// copy would be slow; the subsample keeps all paths honest).
				if k%8 == 0 {
					inst, err := Embed(a, asg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := cec.Check(a.Circuit, inst, cec.DefaultOptions())
					if err != nil {
						t.Fatal(err)
					}
					if want.Equivalent != got.Equivalent {
						t.Fatalf("assignment %d: session %v vs check %v", k, got.Equivalent, want.Equivalent)
					}
				}
			}
			if !ver.Certified() {
				t.Fatalf("%s: verifier fell back from its window certificates", name)
			}
		})
	}
}

// TestSessionCatchesBrokenVariant corrupts one catalogue entry (flipping a
// literal's polarity breaks the ODC condition) and demands both paths
// refute equivalence, with a counterexample that replays.
func TestSessionCatchesBrokenVariant(t *testing.T) {
	a := analyzeBench(t, "c432")
	// Find a location/target with an AddLiteral variant and flip its
	// literal polarity: the appended literal then takes the non-identity
	// value while the cone is observable, changing the function.
	broken := false
	var li, tj int
	for i := range a.Locations {
		for j := range a.Locations[i].Targets {
			for v := range a.Locations[i].Targets[j].Variants {
				variant := &a.Locations[i].Targets[j].Variants[v]
				if variant.Kind == AddLiteral && len(variant.Lits) == 1 {
					variant.Lits[0].Neg = !variant.Lits[0].Neg
					li, tj = i, j
					broken = true
					break
				}
			}
			if broken {
				break
			}
		}
		if broken {
			break
		}
	}
	if !broken {
		t.Skip("no AddLiteral variant found")
	}
	ver := NewVerifier(a)
	asg := EmptyAssignment(a)
	asg[li][tj] = 0
	got, err := ver.Verify(asg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equivalent {
		t.Fatal("session declared a corrupted variant equivalent")
	}
	inst, err := Embed(a, asg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cec.Check(a.Circuit, inst, cec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if want.Equivalent {
		t.Fatal("one-shot check disagreed: declared the corrupted variant equivalent")
	}
	// Counterexample round trip on the materialized instance.
	om, err := sim.EvalOne(a.Circuit, got.Counterexample)
	if err != nil {
		t.Fatal(err)
	}
	oi, err := sim.EvalOne(inst, got.Counterexample)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := range om {
		if om[i] != oi[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatalf("session counterexample %v does not distinguish the circuits", got.Counterexample)
	}
}

func TestVerifierRejectsTampered(t *testing.T) {
	a := analyzeBench(t, "c432")
	asg := EmptyAssignment(a)
	if len(asg) == 0 || len(asg[0]) == 0 {
		t.Skip("no locations")
	}
	asg[0][0] = Tampered
	if _, err := a.SharedVerifier().Verify(asg); err == nil {
		t.Fatal("tampered assignment must be rejected at assignment level")
	}
}

func TestSharedVerifierConcurrent(t *testing.T) {
	a := analyzeBench(t, "c880")
	rng := rand.New(rand.NewSource(3))
	asgs := make([]Assignment, 8)
	for i := range asgs {
		asgs[i] = randomAssignment(rng, a)
	}
	done := make(chan error, len(asgs))
	for _, asg := range asgs {
		asg := asg
		go func() {
			v, err := a.SharedVerifier().Verify(asg)
			if err == nil && !v.Equivalent {
				t.Error("catalogued assignment verified inequivalent")
			}
			done <- err
		}()
	}
	for range asgs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestResultVerifyUsesSession checks the pipeline wiring end to end: the
// pipeline's verify runs on the shared verifier's window certificates, with
// no session built, and a directly built session agrees on the same copy.
func TestResultVerifyUsesSession(t *testing.T) {
	lib := cell.Default()
	spec, err := bench.ByName("c499")
	if err != nil {
		t.Fatal(err)
	}
	c := spec.Build()
	a, err := Analyze(c, DefaultOptions(lib))
	if err != nil {
		t.Fatal(err)
	}
	res, err := finish(a, FullAssignment(a), lib)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	v := a.SharedVerifier()
	if !v.Certified() || v.sess != nil {
		t.Error("pipeline verify did not run on the window certificates")
	}
	if st := v.cert.Stats(); st.Proved == 0 || st.Proved != st.Windows {
		t.Errorf("certifier proved %d of %d windows", st.Proved, st.Windows)
	}
	sess, err := cec.NewSession(a.Circuit, a.Slots(), cec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	choice, err := a.SlotChoice(res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Verify(choice)
	if err != nil || !got.Equivalent {
		t.Fatalf("session verdict on the pipeline copy = (%+v, %v), want equivalent", got, err)
	}
	if st := sess.Stats(); st.Verifies == 0 {
		t.Error("session served no verifies")
	}
}
