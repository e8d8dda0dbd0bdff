package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cec"
	"repro/internal/cell"
	"repro/internal/fault"
	"repro/internal/sim"
)

// oracleConflicts bounds the oracle session's first verify. A session that
// cannot close its cones within it (the multiplier c6288 takes minutes, i10
// 90 s) is replaced by random simulation of the materialized copies, a
// weaker oracle that can still refute a wrong "equivalent".
const oracleConflicts = 20000

// certify runs a's location windows through a fresh certifier.
func certify(t *testing.T, a *Analysis) (bool, cec.CertifierStats) {
	t.Helper()
	ct, err := cec.NewCertifier(a.Circuit, a.Slots(), a.Windows(), cec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ct.Certify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ok, ct.Stats()
}

// TestWindowCertificatesMatchSession is the certificates' oracle test: on
// every suite circuit plus c5315 and c7552, the verifier's verdict —
// certificate, or session fallback when a window fails — equals a directly
// built cec.Session's for every single-slot choice and for seeded random
// assignments. Circuits whose oracle session exhausts oracleConflicts are
// checked against random simulation instead; one whose certificate also
// fails (its verifier would rebuild that session unbudgeted) only reports
// its window counts.
func TestWindowCertificatesMatchSession(t *testing.T) {
	specs := append(bench.Suite(), bench.Extras()...)
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			a, err := Analyze(spec.Build(), DefaultOptions(cell.Default()))
			if err != nil {
				t.Fatal(err)
			}
			certified, st := certify(t, a)
			if spec.Name == "c5315" && !certified {
				t.Fatalf("c5315 must certify with zero fallbacks: %+v", st)
			}
			opts := cec.DefaultOptions()
			opts.MaxConflicts = oracleConflicts
			sess, err := cec.NewSession(a.Circuit, a.Slots(), opts)
			if err != nil {
				t.Fatal(err)
			}
			// The first verify closes the session's cones; a budget
			// exhaustion there selects the simulation oracle.
			asg := EmptyAssignment(a)
			choice, err := a.SlotChoice(asg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Verify(choice); errors.Is(err, cec.ErrBudgetExhausted) {
				sess = nil
			} else if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d slots, %d windows (%d distinct formulas solved, %d reused, %d proved), %d merged, certified %v, session oracle %v",
				spec.Name, len(a.Slots()), st.Windows, st.Solves, st.Reused, st.Proved, st.Merged, certified, sess != nil)
			if !certified && sess == nil {
				// The verifier's fallback is a session built exactly like
				// the oracle, without its budget: too slow to run here.
				return
			}
			ver := NewVerifier(a)
			n := 0
			check := func(asg Assignment) {
				n++
				var want bool
				if sess != nil {
					choice, err := a.SlotChoice(asg)
					if err != nil {
						t.Fatal(err)
					}
					v, err := sess.Verify(choice)
					if err != nil {
						t.Fatal(err)
					}
					want = v.Equivalent
				} else {
					inst, err := Embed(a, asg)
					if err != nil {
						t.Fatal(err)
					}
					if want, _, err = sim.EquivalentRandom(a.Circuit, inst, 2, int64(n)); err != nil {
						t.Fatal(err)
					}
				}
				got, err := ver.Verify(asg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Equivalent != want {
					t.Fatalf("assignment %v: verifier %v, oracle %v", asg, got.Equivalent, want)
				}
			}
			// Every single-slot choice, on one reused assignment; every
			// eighth under the race detector, where the sweep would take
			// minutes.
			stride := 1
			if raceEnabled {
				stride = 8
			}
			check(asg)
			k := 0
			for i := range a.Locations {
				for j, tgt := range a.Locations[i].Targets {
					for v := range tgt.Variants {
						if k++; k%stride == 0 {
							asg[i][j] = v
							check(asg)
						}
					}
					asg[i][j] = -1
				}
			}
			rng := rand.New(rand.NewSource(int64(len(spec.Name)) * 7919))
			for k := 0; k < 8; k++ {
				check(randomAssignment(rng, a))
			}
			if ver.Certified() != certified {
				t.Fatalf("verifier certified %v, certifier %v", ver.Certified(), certified)
			}
		})
	}
}

// plantedUnsafe finds a location whose variant, after mutate, yields a copy
// that cec.Check refutes. It returns the single-slot assignment for it, the
// location's index and its catalogue before the mutation. mutate edits
// location i in place and reports whether it applied.
func plantedUnsafe(t *testing.T, a *Analysis, mutate func(i int) bool) (Assignment, int, Location) {
	t.Helper()
	for i := range a.Locations {
		saved := cloneLocation(a.Locations[i])
		if !mutate(i) {
			continue
		}
		for j, tgt := range a.Locations[i].Targets {
			for v := range tgt.Variants {
				asg := EmptyAssignment(a)
				asg[i][j] = v
				inst, err := Embed(a, asg)
				if err != nil {
					continue
				}
				if want, err := cec.Check(a.Circuit, inst, cec.DefaultOptions()); err == nil && !want.Equivalent {
					return asg, i, saved
				}
			}
		}
		a.Locations[i] = saved
	}
	t.Fatal("no mutation produced an inequivalent copy")
	return nil, 0, Location{}
}

// certifyLocation certifies location loc of a on its own window alone.
func certifyLocation(t *testing.T, a *Analysis, loc Location) bool {
	t.Helper()
	one := &Analysis{Circuit: a.Circuit, Locations: []Location{loc}}
	ok, _ := certify(t, one)
	return ok
}

func cloneLocation(l Location) Location {
	l.Targets = append([]Target(nil), l.Targets...)
	for j := range l.Targets {
		l.Targets[j].Variants = append([]Variant(nil), l.Targets[j].Variants...)
		for v := range l.Targets[j].Variants {
			l.Targets[j].Variants[v].Lits = append([]Lit(nil), l.Targets[j].Variants[v].Lits...)
		}
	}
	return l
}

// TestWindowCertificatesRejectPlanted plants unsafe catalogue entries — a
// flipped literal polarity, and a location re-catalogued under the wrong
// trigger value — and demands that the location's window fails and that
// the verifier, on its session fallback, refutes the copy with a
// counterexample the gate-level reference simulator confirms.
func TestWindowCertificatesRejectPlanted(t *testing.T) {
	mutations := map[string]func(a *Analysis) func(i int) bool{
		"literal-polarity": func(a *Analysis) func(int) bool {
			return func(i int) bool {
				for j := range a.Locations[i].Targets {
					for v := range a.Locations[i].Targets[j].Variants {
						lits := a.Locations[i].Targets[j].Variants[v].Lits
						lits[0].Neg = !lits[0].Neg
					}
				}
				return true
			}
		},
		"trigger-value": func(a *Analysis) func(int) bool {
			return func(i int) bool {
				loc := &a.Locations[i]
				loc.TriggerValue = !loc.TriggerValue
				// The scanner is never released: its buffers hold the
				// re-catalogued variants.
				sc := getScanner(a, nil)
				any := false
				for j := range loc.Targets {
					loc.Targets[j].Variants = sc.variantsFor(*loc, loc.Targets[j].Gate)
					any = any || len(loc.Targets[j].Variants) > 0
				}
				return any
			}
		},
	}
	for name, mut := range mutations {
		mut := mut
		t.Run(name, func(t *testing.T) {
			a := analyzeBench(t, "c880")
			asg, i, sound := plantedUnsafe(t, a, mut(a))
			// The location's own window decides: it certifies as
			// catalogued and fails once planted.
			if !certifyLocation(t, a, sound) {
				t.Fatal("the unmutated location's window does not certify")
			}
			if certifyLocation(t, a, a.Locations[i]) {
				t.Fatal("the planted location's window certified")
			}
			if ok, st := certify(t, a); ok || !st.Failed {
				t.Fatalf("planted unsafe variant certified: %+v", st)
			}
			before := mSessionFallbacks.Value()
			ver := NewVerifier(a)
			got, err := ver.Verify(asg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Equivalent {
				t.Fatal("verifier declared the planted variant equivalent")
			}
			if mSessionFallbacks.Value() != before+1 || ver.Certified() {
				t.Fatal("verifier did not fall back to the session")
			}
			inst, err := Embed(a, asg)
			if err != nil {
				t.Fatal(err)
			}
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
				differs = differs || om[i] != oi[i]
			}
			if !differs {
				t.Fatalf("counterexample %v does not distinguish the copy", got.Counterexample)
			}
		})
	}
}

// TestVerifierCertificateInterruptions: a sat.budget fault during window
// proving surfaces as ErrBudgetExhausted and a cancelled context as its own
// error; after either, the next call certifies, with no session fallback.
func TestVerifierCertificateInterruptions(t *testing.T) {
	a := analyzeBench(t, "c880")
	ver := NewVerifier(a)
	asg := FullAssignment(a)
	before := mSessionFallbacks.Value()

	p, err := fault.Parse("sat.budget:every=1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	_, err = ver.Verify(asg)
	fault.Disable()
	if !errors.Is(err, cec.ErrBudgetExhausted) {
		t.Fatalf("Verify under sat.budget = %v, want ErrBudgetExhausted", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ver.VerifyCtx(ctx, asg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Verify with cancelled ctx = %v, want context.Canceled", err)
	}
	got, err := ver.Verify(asg)
	if err != nil || !got.Equivalent || !got.Proved {
		t.Fatalf("Verify after interruptions = (%+v, %v), want proved equivalent", got, err)
	}
	if !ver.Certified() || ver.sess != nil || mSessionFallbacks.Value() != before {
		t.Fatal("verifier fell back to the session after an interruption")
	}
}

// TestCertifierRealBudgetFails: a real MaxConflicts exhaustion is a failed
// window, not an interruption, so the caller falls back.
func TestCertifierRealBudgetFails(t *testing.T) {
	a := analyzeBench(t, "c5315")
	opts := cec.DefaultOptions()
	opts.MaxConflicts = 1
	ct, err := cec.NewCertifier(a.Circuit, a.Slots(), a.Windows(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ct.Certify(context.Background())
	if ok || err != nil || !ct.Stats().Failed {
		t.Fatalf("Certify with a 1-conflict budget = (%v, %v) %+v, want a failed window", ok, err, ct.Stats())
	}
}
