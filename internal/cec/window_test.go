package cec

import (
	"context"
	"errors"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// fixtureWindow is the fig1 location's window: the primary gate F and the
// cone {X}.
func fixtureWindow(c *circuit.Circuit) []circuit.NodeID {
	return []circuit.NodeID{c.MustLookup("F"), c.MustLookup("X")}
}

func TestCertifierProvesSoundFixture(t *testing.T) {
	c, slots := sessionFixture(t)
	slots[0].Options = slots[0].Options[:1] // the sound option only
	ct, err := NewCertifier(c, slots, [][]circuit.NodeID{fixtureWindow(c)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ct.Certify(context.Background())
	if err != nil || !ok {
		t.Fatalf("Certify = (%v, %v), want certified", ok, err)
	}
	st := ct.Stats()
	if st.Windows != 1 || st.Proved != 1 || st.Solves != 1 || st.Failed {
		t.Fatalf("stats %+v, want one window proved by one solve", st)
	}
	// Certified windows are never solved again.
	if ok, err := ct.Certify(context.Background()); !ok || err != nil || ct.Stats().Solves != 1 {
		t.Fatalf("second Certify = (%v, %v), %d solves; want certified with no new solve", ok, err, ct.Stats().Solves)
	}
}

// TestCertifierRejectsBrokenOption: the ¬Y option changes F, so the window
// fails, and stays failed.
func TestCertifierRejectsBrokenOption(t *testing.T) {
	c, slots := sessionFixture(t)
	ct, err := NewCertifier(c, slots, [][]circuit.NodeID{fixtureWindow(c)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if ok, err := ct.Certify(context.Background()); ok || err != nil {
			t.Fatalf("Certify #%d = (%v, %v), want a failed window", i, ok, err)
		}
	}
	if st := ct.Stats(); !st.Failed || st.Solves != 1 {
		t.Fatalf("stats %+v, want one failing solve", st)
	}
}

// TestCertifierNeedsPrimary: without the primary gate the cone root X is a
// window output read by F, and X itself does change, so the window cannot
// certify — the primary gate is what makes a location's window provable.
func TestCertifierNeedsPrimary(t *testing.T) {
	c, slots := sessionFixture(t)
	slots[0].Options = slots[0].Options[:1]
	ct, err := NewCertifier(c, slots, [][]circuit.NodeID{{c.MustLookup("X")}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := ct.Certify(context.Background()); ok || err != nil {
		t.Fatalf("Certify = (%v, %v), want a failed window", ok, err)
	}
}

// TestCertifierMergesOnInterior: window {X} contains X, which is interior
// to window {X, F} (its only reader F lies inside that window). The
// composition rule merges them, and the merged window certifies; proved
// apart, {X} would fail as in TestCertifierNeedsPrimary.
func TestCertifierMergesOnInterior(t *testing.T) {
	c, slots := sessionFixture(t)
	slots[0].Options = slots[0].Options[:1]
	windows := [][]circuit.NodeID{{c.MustLookup("X")}, fixtureWindow(c)}
	ct, err := NewCertifier(c, slots, windows, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st := ct.Stats(); st.Windows != 1 || st.Merged != 1 {
		t.Fatalf("stats %+v, want the two windows merged into one", st)
	}
	if ok, err := ct.Certify(context.Background()); !ok || err != nil {
		t.Fatalf("Certify = (%v, %v), want certified", ok, err)
	}
}

// TestCertifierReadsOutputsWithoutMerging: a second window reading the
// first window's output as a cut stays separate.
func TestCertifierReadsOutputsWithoutMerging(t *testing.T) {
	c, slots := sessionFixture(t)
	slots[0].Options = slots[0].Options[:1]
	// G = OR(F, C) reads F, the first window's output.
	g, err := c.AddGate("G", logic.Or, c.MustLookup("F"), c.MustLookup("C"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddPO("G", g); err != nil {
		t.Fatal(err)
	}
	windows := [][]circuit.NodeID{fixtureWindow(c), {g}}
	ct, err := NewCertifier(c, slots, windows, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st := ct.Stats(); st.Windows != 2 || st.Merged != 0 {
		t.Fatalf("stats %+v, want two unmerged windows", st)
	}
	if ok, err := ct.Certify(context.Background()); !ok || err != nil {
		t.Fatalf("Certify = (%v, %v), want certified", ok, err)
	}
}

func TestCertifierRefusesUncoveredSlot(t *testing.T) {
	c, slots := sessionFixture(t)
	if _, err := NewCertifier(c, slots, [][]circuit.NodeID{{c.MustLookup("F")}}, DefaultOptions()); err == nil {
		t.Fatal("a slot outside every window must be refused")
	}
}

func TestCertifierRefusesUnionCycle(t *testing.T) {
	c, slots := sessionFixture(t)
	// X reading F as a literal closes X → F → X in the union graph.
	slots[0].Options = []Mod{{Kind: logic.And, Lits: []Lit{{Node: c.MustLookup("F")}}}}
	if _, err := NewCertifier(c, slots, [][]circuit.NodeID{fixtureWindow(c)}, DefaultOptions()); err == nil {
		t.Fatal("a union-graph cycle must be refused")
	}
}

func TestCertifierStaleAfterMutation(t *testing.T) {
	c, slots := sessionFixture(t)
	slots[0].Options = slots[0].Options[:1]
	ct, err := NewCertifier(c, slots, [][]circuit.NodeID{fixtureWindow(c)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetKind(c.MustLookup("Y"), logic.And); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Certify(context.Background()); err == nil {
		t.Fatal("certifying a mutated master must fail")
	}
}

// TestCertifierInterruptedRetries: an injected budget exhaustion surfaces as
// ErrBudgetExhausted and a cancelled context as its own error; neither
// fails the window, and the next call certifies it.
func TestCertifierInterruptedRetries(t *testing.T) {
	c, slots := sessionFixture(t)
	slots[0].Options = slots[0].Options[:1]
	ct, err := NewCertifier(c, slots, [][]circuit.NodeID{fixtureWindow(c)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	armFaults(t, "sat.budget:every=1")
	if _, err := ct.Certify(context.Background()); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Certify under injected budget = %v, want ErrBudgetExhausted", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ct.Certify(ctx); !errors.Is(err, ErrBudgetExhausted) {
		// The fault fires before the context is looked at.
		t.Fatalf("Certify under injected budget = %v, want ErrBudgetExhausted", err)
	}
	fault.Disable()
	if _, err := ct.Certify(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Certify with cancelled ctx = %v, want context.Canceled", err)
	}
	if ok, err := ct.Certify(context.Background()); !ok || err != nil {
		t.Fatalf("Certify after interruptions = (%v, %v), want certified", ok, err)
	}
	if st := ct.Stats(); st.Failed || st.Proved != 1 {
		t.Fatalf("stats %+v, want the window proved on retry", st)
	}
}

// TestSessionConesOnRegionEncoder: a session closing two PO cones in a row
// on the shared region encoder (whose scratch is reset between regions)
// still matches the one-shot check for every choice.
func TestSessionConesOnRegionEncoder(t *testing.T) {
	c, slots := sessionFixture(t)
	// A second output reading X directly: option 0 is safe for F but not
	// for XO.
	if err := c.AddPO("XO", c.MustLookup("X")); err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(c, slots, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, choice := range [][]int{{-1}, {0}, {1}, {0}} {
		got, err := sess.Verify(choice)
		if err != nil {
			t.Fatal(err)
		}
		inst := materialize(t, c, slots, choice)
		want, err := Check(c, inst, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got.Equivalent != want.Equivalent {
			t.Fatalf("choice %v: session %v vs check %v", choice, got.Equivalent, want.Equivalent)
		}
		if !got.Equivalent {
			assertCexDiffers(t, c, inst, got)
		}
	}
	if st := sess.Stats(); st.UniversalSolves != 2 {
		t.Fatalf("%d universal solves, want one per diff PO", st.UniversalSolves)
	}
}

// twinFixture is two disjoint copies of fig1, F1 = X1·Y1 and F2 = X2·Y2,
// each with one slot on its X reading its Y as a literal: the sound option
// X·Y, or its ¬Y twin when flip names that copy. The two location windows
// {X, F} encode to the same formula up to that literal's sign.
func twinFixture(t *testing.T, flip ...bool) (*circuit.Circuit, []Slot, [][]circuit.NodeID) {
	t.Helper()
	c := circuit.New("twins")
	var slots []Slot
	var windows [][]circuit.NodeID
	for i, neg := range flip {
		n := func(s string) string { return s + string(rune('1'+i)) }
		a, _ := c.AddPI(n("A"))
		b, _ := c.AddPI(n("B"))
		d, _ := c.AddPI(n("C"))
		e, _ := c.AddPI(n("D"))
		x, _ := c.AddGate(n("X"), logic.And, a, b)
		y, _ := c.AddGate(n("Y"), logic.Or, d, e)
		f, err := c.AddGate(n("F"), logic.And, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddPO(n("F"), f); err != nil {
			t.Fatal(err)
		}
		slots = append(slots, Slot{Gate: x, Options: []Mod{{Kind: logic.And, Lits: []Lit{{Node: y, Neg: neg}}}}})
		windows = append(windows, []circuit.NodeID{f, x})
	}
	return c, slots, windows
}

// TestCertifierReusesTwinProof: two windows of one shape and one formula
// are proved by one solve, and the reused proof spends no conflict budget.
func TestCertifierReusesTwinProof(t *testing.T) {
	c, slots, windows := twinFixture(t, false, false)
	ct, err := NewCertifier(c, slots, windows, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := ct.Certify(context.Background()); !ok || err != nil {
		t.Fatalf("Certify = (%v, %v), want certified", ok, err)
	}
	st := ct.Stats()
	if st.Windows != 2 || st.Proved != 2 || st.Solves != 1 || st.Reused != 1 {
		t.Fatalf("stats %+v, want two windows proved by one solve and one reuse", st)
	}
	// A budget the first solve uses up entirely still certifies the twin:
	// find the least budget that proves one window, then give both that.
	one := DefaultOptions()
	for one.MaxConflicts = 1; ; one.MaxConflicts++ {
		single, err := NewCertifier(c, slots[:1], windows[:1], one)
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := single.Certify(context.Background()); ok {
			break
		}
		if one.MaxConflicts > 1000 {
			t.Fatal("one window never certified")
		}
	}
	ct, err = NewCertifier(c, slots, windows, one)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := ct.Certify(context.Background()); !ok || err != nil {
		t.Fatalf("Certify with a %d-conflict budget = (%v, %v), %+v; want certified", one.MaxConflicts, ok, err, ct.Stats())
	}
}

// TestCertifierTwinWithFlippedLiteral: the second window has the first's
// shape, but its option reads ¬Y, which changes F. The first window's proof
// must not carry over: the certifier fails, in either order.
func TestCertifierTwinWithFlippedLiteral(t *testing.T) {
	for _, flip := range [][]bool{{false, true}, {true, false}} {
		c, slots, windows := twinFixture(t, flip...)
		ct, err := NewCertifier(c, slots, windows, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := ct.Certify(context.Background()); ok || err != nil {
			t.Fatalf("twins %v: Certify = (%v, %v), %+v; want a failed window", flip, ok, err, ct.Stats())
		}
		if st := ct.Stats(); !st.Failed || st.Reused != 0 {
			t.Fatalf("twins %v: stats %+v, want failed with nothing reused", flip, st)
		}
	}
}

// TestCertifierRemembersOnlyUnsat: an interrupted solve proves nothing, so
// its formula's identical twin is solved, not reused. Both twins are the
// broken ¬Y window; the injected budget interrupts the first solve only.
func TestCertifierRemembersOnlyUnsat(t *testing.T) {
	c, slots, windows := twinFixture(t, true, true)
	ct, err := NewCertifier(c, slots, windows, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	armFaults(t, "sat.budget:count=1")
	ok, err := ct.Certify(context.Background())
	if ok || err != nil {
		t.Fatalf("Certify = (%v, %v), want the twin's solve to fail", ok, err)
	}
	if st := ct.Stats(); st.Proved != 0 || st.Reused != 0 || st.Solves != 2 || !st.Failed {
		t.Fatalf("stats %+v, want two solves, nothing proved or reused", st)
	}
}
