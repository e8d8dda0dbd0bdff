package cec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

func fig1(t *testing.T) *circuit.Circuit {
	t.Helper()
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

func TestEquivalentToSelf(t *testing.T) {
	a := fig1(t)
	b := fig1(t)
	v, err := Check(a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equivalent || !v.Proved {
		t.Fatalf("self-equivalence failed: %+v", v)
	}
}

func TestFig1Fingerprint(t *testing.T) {
	a := fig1(t)
	b := fig1(t)
	// Paper Fig. 1 right: X additionally reads Y.
	if err := b.AddFanin(b.MustLookup("X"), b.MustLookup("Y")); err != nil {
		t.Fatal(err)
	}
	if err := MustEquivalent(a, b); err != nil {
		t.Fatal(err)
	}
	// Fig. 2 variants: X' = AND(A, B, Y) with OR(C, D) replaced by
	// OR(C, D, A') — wait, Fig. 2 feeds X into Y's OR instead; an OR gate
	// reading the AND output X is NOT function-preserving in general, so
	// check the true Fig. 2 form: Y = OR(C, D, X·something)? The paper's
	// Fig. 2 shows two more equivalent implementations; we verify the
	// canonical one: Y reads X with OR identity when X=0... OR(C,D,X)
	// changes F only when C=D=0 and X=1: F = X·Y = X·X = X vs original
	// X·0 = 0 — differs! So OR(C,D,X) is NOT equivalent; confirm the
	// checker catches it.
	cbad := fig1(t)
	if err := cbad.AddFanin(cbad.MustLookup("Y"), cbad.MustLookup("X")); err != nil {
		t.Fatal(err)
	}
	v, err := Check(a, cbad, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if v.Equivalent {
		t.Fatal("checker missed a real functional change")
	}
	if v.PO != "F" || v.Counterexample == nil {
		t.Errorf("counterexample missing: %+v", v)
	}
	// Replay the counterexample.
	oa, _ := sim.EvalOne(a, v.Counterexample)
	ob, _ := sim.EvalOne(cbad, v.Counterexample)
	if oa[0] == ob[0] {
		t.Error("counterexample does not distinguish the circuits")
	}
}

func TestSimPrePassDisabled(t *testing.T) {
	// With SimWords=0 the SAT path must find the counterexample itself.
	a := fig1(t)
	b := fig1(t)
	if err := b.AddFanin(b.MustLookup("Y"), b.MustLookup("X")); err != nil {
		t.Fatal(err)
	}
	v, err := Check(a, b, Options{SimWords: 0})
	if err != nil {
		t.Fatal(err)
	}
	if v.Equivalent {
		t.Fatal("SAT path missed inequivalence")
	}
	oa, _ := sim.EvalOne(a, v.Counterexample)
	ob, _ := sim.EvalOne(b, v.Counterexample)
	if oa[0] == ob[0] {
		t.Error("SAT counterexample invalid")
	}
}

// TestSimPrePassMatchesCompare: the pre-pass over the packed miter reports
// exactly the (PO, counterexample) that the gate-level reference
// sim.Compare finds on the same vectors, for mismatches planted across a
// real benchmark — including ones first seen past word 0 or on a later PO.
func TestSimPrePassMatchesCompare(t *testing.T) {
	spec, err := bench.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Build()
	const nWords, seed = 16, 3
	vec := sim.Random(len(a.PIs), nWords, seed)
	planted, laterWord, laterPO := 0, false, false
	for i := range a.Nodes {
		nd := &a.Nodes[i]
		if nd.IsPI || len(nd.Fanin) < 2 || i%5 != 0 {
			continue
		}
		// Plant: widen the gate with one more primary-input pin. On an
		// AND/OR this only flips the output when the other pins are all at
		// the identity value, so first differences land at varied patterns.
		b := a.Clone()
		pin := b.PIs[i%len(b.PIs)]
		if err := b.AddFanin(circuit.NodeID(i), pin); err != nil {
			continue // already a fanin
		}
		mm, err := sim.Compare(a, b, vec)
		if err != nil {
			t.Fatal(err)
		}
		if mm == nil {
			continue // unobservable on these vectors
		}
		planted++
		laterWord = laterWord || mm.Pattern >= 64
		laterPO = laterPO || mm.PO != a.POs[0].Name
		v, err := Check(a, b, Options{SimWords: nWords, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if v.Equivalent || v.PO != mm.PO || v.Conflicts != 0 || len(v.Counterexample) != len(a.PIs) {
			t.Fatalf("gate %s: verdict %+v, reference %s", nd.Name, v, mm)
		}
		w, lane := mm.Pattern/64, uint(mm.Pattern%64)
		for j, got := range v.Counterexample {
			if want := vec.Words[j][w]>>lane&1 == 1; got != want {
				t.Fatalf("gate %s: counterexample PI %d = %v, reference pattern %d has %v",
					nd.Name, j, got, mm.Pattern, want)
			}
		}
	}
	if planted < 10 || !laterWord || !laterPO {
		t.Fatalf("weak coverage: %d planted mismatches, past word 0: %v, past PO 0: %v",
			planted, laterWord, laterPO)
	}
}

func TestInterfaceMismatch(t *testing.T) {
	a := fig1(t)
	b := circuit.New("other")
	p, _ := b.AddPI("Z")
	g, _ := b.AddGate("g", logic.Inv, p)
	if err := b.AddPO("o", g); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(a, b, DefaultOptions()); err == nil {
		t.Error("interface mismatch accepted")
	}
}

// randomCircuit builds a random DAG circuit over fixed PI/PO names.
func randomCircuit(rng *rand.Rand, name string, nPI, nGates int) *circuit.Circuit {
	c := circuit.New(name)
	ids := make([]circuit.NodeID, 0, nPI+nGates)
	for i := 0; i < nPI; i++ {
		id, _ := c.AddPI("pi" + string(rune('a'+i)))
		ids = append(ids, id)
	}
	kinds := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor, logic.Inv}
	for g := 0; g < nGates; g++ {
		k := kinds[rng.Intn(len(kinds))]
		n := k.MinFanin()
		fanin := make([]circuit.NodeID, 0, n)
		seen := map[circuit.NodeID]bool{}
		for len(fanin) < n {
			f := ids[rng.Intn(len(ids))]
			if seen[f] {
				continue
			}
			seen[f] = true
			fanin = append(fanin, f)
		}
		id, err := c.AddGate("g"+string(rune('A'+g%26))+string(rune('0'+g/26)), k, fanin...)
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	if err := c.AddPO("out", ids[len(ids)-1]); err != nil {
		panic(err)
	}
	if err := c.AddPO("out2", ids[len(ids)/2]); err != nil {
		panic(err)
	}
	return c
}

// TestAgainstExhaustiveSim: the SAT verdict must agree with exhaustive
// simulation on random circuit pairs (sharing PIs, usually inequivalent, and
// equivalent when compared against a clone).
func TestAgainstExhaustiveSim(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nPI := 3 + rng.Intn(4)
		a := randomCircuit(rng, "a", nPI, 5+rng.Intn(15))
		// Equivalent pair: clone.
		v, err := Check(a, a.Clone(), Options{SimWords: 2, Seed: seed})
		if err != nil || !v.Equivalent {
			t.Logf("seed %d: clone not equivalent: %v %v", seed, v, err)
			return false
		}
		// Random pair: SAT verdict must match exhaustive simulation.
		b := randomCircuit(rand.New(rand.NewSource(seed^0x9E37)), "a", nPI, 5+rng.Intn(15))
		want, _, err := sim.EquivalentExhaustive(a, b)
		if err != nil {
			t.Logf("seed %d: sim err %v", seed, err)
			return false
		}
		got, err := Check(a, b, Options{SimWords: 1, Seed: seed})
		if err != nil {
			t.Logf("seed %d: cec err %v", seed, err)
			return false
		}
		if got.Equivalent != want {
			t.Logf("seed %d: cec=%v sim=%v", seed, got.Equivalent, want)
			return false
		}
		if !got.Equivalent {
			oa, _ := sim.EvalOne(a, got.Counterexample)
			ob, _ := sim.EvalOne(b, got.Counterexample)
			same := true
			for i := range oa {
				if oa[i] != ob[i] {
					same = false
				}
			}
			if same {
				t.Logf("seed %d: bogus counterexample", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestConstAndWideGates(t *testing.T) {
	// Exercise Const0/Const1, Buf and wide/XOR gates through the encoder.
	mk := func() *circuit.Circuit {
		c := circuit.New("k")
		a, _ := c.AddPI("a")
		b, _ := c.AddPI("b")
		d, _ := c.AddPI("d")
		z, _ := c.AddGate("zero", logic.Const0)
		o, _ := c.AddGate("one", logic.Const1)
		bf, _ := c.AddGate("bf", logic.Buf, a)
		w, _ := c.AddGate("w", logic.And, a, b, d)
		x, _ := c.AddGate("x", logic.Xor, w, bf, o)
		y, _ := c.AddGate("y", logic.Xnor, x, z, b)
		n, _ := c.AddGate("n", logic.Nor, y, w, d)
		if err := c.AddPO("o", n); err != nil {
			panic(err)
		}
		return c
	}
	a, b := mk(), mk()
	if err := MustEquivalent(a, b); err != nil {
		t.Fatal(err)
	}
	// Exhaustive sim agreement as ground truth.
	eq, _, err := sim.EquivalentExhaustive(a, b)
	if err != nil || !eq {
		t.Fatalf("sim disagrees: %v %v", eq, err)
	}
	// Flip one gate: must be caught.
	c := mk()
	if err := c.SetKind(c.MustLookup("n"), logic.Or); err != nil {
		t.Fatal(err)
	}
	v, err := Check(a, c, Options{SimWords: 0})
	if err != nil {
		t.Fatal(err)
	}
	if v.Equivalent {
		t.Fatal("NOR→OR flip not caught")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// A tiny budget on a non-trivially-equivalent pair must error, not lie.
	mk := func() *circuit.Circuit {
		rng := rand.New(rand.NewSource(5))
		return randomCircuit(rng, "a", 8, 60)
	}
	a, b := mk(), mk()
	// XOR-heavy random circuits with conflict budget 1: likely Unknown.
	_, err := Check(a, b, Options{SimWords: 0, MaxConflicts: 1})
	if err == nil {
		// Acceptable: solved within one conflict. Not an error.
		t.Log("solved within budget (acceptable)")
	}
}
