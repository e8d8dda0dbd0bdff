package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// fig1 builds F = (A·B)·(C+D); fig1FP builds the fingerprinted variant where
// the AND generating X additionally reads Y — functionally identical.
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

func fig1FP(t *testing.T) *circuit.Circuit {
	t.Helper()
	c := fig1(t)
	if err := c.AddFanin(c.MustLookup("X"), c.MustLookup("Y")); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEvalOne(t *testing.T) {
	c := fig1(t)
	cases := []struct {
		in   []bool
		want bool
	}{
		{[]bool{true, true, true, false}, true},
		{[]bool{true, true, false, false}, false},
		{[]bool{true, false, true, true}, false},
		{[]bool{false, false, false, false}, false},
	}
	for _, tc := range cases {
		got, err := EvalOne(c, tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != tc.want {
			t.Errorf("EvalOne(%v) = %v, want %v", tc.in, got[0], tc.want)
		}
	}
	if _, err := EvalOne(c, []bool{true}); err == nil {
		t.Error("EvalOne with wrong arity succeeded")
	}
}

func TestExhaustiveShape(t *testing.T) {
	v, err := Exhaustive(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Words) != 3 || v.NumWords() != 1 {
		t.Fatalf("Exhaustive(3) shape = %d×%d", len(v.Words), v.NumWords())
	}
	// Bit i of pattern p must be (p>>i)&1 for p < 8; padding repeats.
	for p := 0; p < 64; p++ {
		for i := 0; i < 3; i++ {
			want := (p%8)>>uint(i)&1 == 1
			got := v.Words[i][0]>>uint(p)&1 == 1
			if got != want {
				t.Fatalf("pattern %d input %d = %v, want %v", p, i, got, want)
			}
		}
	}
	if _, err := Exhaustive(MaxExhaustivePIs + 1); err == nil {
		t.Error("Exhaustive beyond limit succeeded")
	}
}

func TestFig1FingerprintEquivalence(t *testing.T) {
	a := fig1(t)
	b := fig1FP(t)
	eq, mm, err := EquivalentExhaustive(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("paper's Fig. 1 fingerprint changed the function: %v", mm)
	}
}

func TestCompareFindsMismatch(t *testing.T) {
	a := fig1(t)
	// Break the function: F = X OR Y instead of AND.
	b := circuit.New("fig1")
	pa, _ := b.AddPI("A")
	pb, _ := b.AddPI("B")
	pc, _ := b.AddPI("C")
	pd, _ := b.AddPI("D")
	x, _ := b.AddGate("X", logic.And, pa, pb)
	y, _ := b.AddGate("Y", logic.Or, pc, pd)
	f, _ := b.AddGate("F", logic.Or, x, y)
	if err := b.AddPO("F", f); err != nil {
		t.Fatal(err)
	}
	eq, mm, err := EquivalentExhaustive(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if eq || mm == nil {
		t.Fatal("mismatch not detected")
	}
	if mm.PO != "F" {
		t.Errorf("mismatch PO = %q", mm.PO)
	}
	if mm.String() == "" {
		t.Error("empty mismatch string")
	}
	// Verify the reported pattern is a real counterexample.
	in := make([]bool, 4)
	for i := range in {
		in[i] = mm.Pattern>>uint(i)&1 == 1
	}
	oa, _ := EvalOne(a, in)
	ob, _ := EvalOne(b, in)
	if oa[0] == ob[0] {
		t.Errorf("reported pattern %d is not a counterexample", mm.Pattern)
	}
}

func TestCompareInterfaceMismatch(t *testing.T) {
	a := fig1(t)
	b := circuit.New("other")
	p, _ := b.AddPI("Z")
	g, _ := b.AddGate("g", logic.Inv, p)
	if err := b.AddPO("o", g); err != nil {
		t.Fatal(err)
	}
	if _, err := Compare(a, b, Random(4, 1, 1)); err == nil {
		t.Error("Compare across different interfaces succeeded")
	}
}

func TestRandomDeterminism(t *testing.T) {
	v1 := Random(3, 4, 42)
	v2 := Random(3, 4, 42)
	v3 := Random(3, 4, 43)
	same, diff := true, false
	for i := range v1.Words {
		for j := range v1.Words[i] {
			if v1.Words[i][j] != v2.Words[i][j] {
				same = false
			}
			if v1.Words[i][j] != v3.Words[i][j] {
				diff = true
			}
		}
	}
	if !same {
		t.Error("same seed produced different vectors")
	}
	if !diff {
		t.Error("different seeds produced identical vectors")
	}
}

func TestRunErrors(t *testing.T) {
	c := fig1(t)
	if _, err := Run(c, Random(2, 1, 1)); err == nil {
		t.Error("Run with wrong PI count succeeded")
	}
	ragged := Random(4, 2, 1)
	ragged.Words[2] = ragged.Words[2][:1]
	if _, err := Run(c, ragged); err == nil {
		t.Error("Run with ragged vectors succeeded")
	}
}

// TestRunMatchesEvalOne: property test that bit-parallel simulation agrees
// with scalar evaluation on random circuits.
func TestRunMatchesEvalOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 4, 12)
		vec := Random(len(c.PIs), 1, seed^0x55)
		res, err := Run(c, vec)
		if err != nil {
			return false
		}
		for lane := 0; lane < 8; lane++ {
			in := make([]bool, len(c.PIs))
			for i := range in {
				in[i] = vec.Words[i][0]>>uint(lane)&1 == 1
			}
			want, err := EvalOne(c, in)
			if err != nil {
				return false
			}
			for i, po := range c.POs {
				got := res.Node[po.Driver][0]>>uint(lane)&1 == 1
				if got != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomCircuit builds a random valid DAG circuit for property tests.
func randomCircuit(rng *rand.Rand, nPI, nGates int) *circuit.Circuit {
	c := circuit.New("rand")
	var ids []circuit.NodeID
	for i := 0; i < nPI; i++ {
		id, _ := c.AddPI(pinName(i))
		ids = append(ids, id)
	}
	kinds := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor, logic.Inv, logic.Buf}
	for g := 0; g < nGates; g++ {
		k := kinds[rng.Intn(len(kinds))]
		n := k.MinFanin()
		if !k.FixedFanin() && rng.Intn(2) == 1 {
			n++
		}
		fanin := make([]circuit.NodeID, 0, n)
		seen := map[circuit.NodeID]bool{}
		for len(fanin) < n {
			f := ids[rng.Intn(len(ids))]
			if seen[f] {
				if len(ids) <= n {
					break
				}
				continue
			}
			seen[f] = true
			fanin = append(fanin, f)
		}
		if len(fanin) < n {
			continue
		}
		id, err := c.AddGate(gateName(g), k, fanin...)
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	last := ids[len(ids)-1]
	if err := c.AddPO("out", last); err != nil {
		panic(err)
	}
	return c
}

func pinName(i int) string  { return "pi" + string(rune('a'+i)) }
func gateName(i int) string { return "g" + itoa(i) }

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

func TestToggleCounts(t *testing.T) {
	// A buffer toggles exactly as often as its input.
	c := circuit.New("tgl")
	a, _ := c.AddPI("a")
	g, _ := c.AddGate("g", logic.Buf, a)
	if err := c.AddPO("o", g); err != nil {
		t.Fatal(err)
	}
	// Input alternates 0101... in one word: 32 toggles over 64 patterns
	// (63 transitions, all toggling).
	v := &Vectors{Words: [][]uint64{{0xAAAAAAAAAAAAAAAA}}}
	counts, err := ToggleCounts(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if counts[a] != 63 || counts[g] != 63 {
		t.Errorf("toggles = a:%d g:%d, want 63,63", counts[a], counts[g])
	}
	// Constant input: zero toggles.
	v = &Vectors{Words: [][]uint64{{0}}}
	counts, err = ToggleCounts(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if counts[g] != 0 {
		t.Errorf("constant input toggles = %d", counts[g])
	}
}

func TestOutputs(t *testing.T) {
	c := fig1(t)
	v, _ := Exhaustive(4)
	res, err := Run(c, v)
	if err != nil {
		t.Fatal(err)
	}
	outs := res.Outputs(c)
	if len(outs) != 1 || len(outs[0]) != v.NumWords() {
		t.Fatalf("Outputs shape wrong")
	}
}

// exhaustiveReference is the original per-bit O(2^n·n) construction, kept as
// the oracle for the block-fill fast path.
func exhaustiveReference(nPI int) *Vectors {
	patterns := 1 << uint(nPI)
	nWords := (patterns + 63) / 64
	v := &Vectors{Words: make([][]uint64, nPI)}
	for i := 0; i < nPI; i++ {
		w := make([]uint64, nWords)
		for p := 0; p < nWords*64; p++ {
			idx := p % patterns
			if idx>>uint(i)&1 == 1 {
				w[p/64] |= 1 << uint(p%64)
			}
		}
		v.Words[i] = w
	}
	return v
}

func TestExhaustiveBlockFill(t *testing.T) {
	for nPI := 1; nPI <= 10; nPI++ {
		got, err := Exhaustive(nPI)
		if err != nil {
			t.Fatal(err)
		}
		want := exhaustiveReference(nPI)
		for i := range want.Words {
			for j := range want.Words[i] {
				if got.Words[i][j] != want.Words[i][j] {
					t.Fatalf("nPI=%d input %d word %d: got %016x want %016x",
						nPI, i, j, got.Words[i][j], want.Words[i][j])
				}
			}
		}
	}
}

func TestSharedRandomMemoized(t *testing.T) {
	a := SharedRandom(5, 4, 42)
	b := SharedRandom(5, 4, 42)
	if &a.Words[0][0] != &b.Words[0][0] {
		t.Error("SharedRandom did not return the memoized vectors")
	}
	want := Random(5, 4, 42)
	for i := range want.Words {
		for j := range want.Words[i] {
			if a.Words[i][j] != want.Words[i][j] {
				t.Fatal("SharedRandom differs from Random")
			}
		}
	}
	other := SharedRandom(5, 4, 43)
	if &other.Words[0][0] == &a.Words[0][0] {
		t.Error("different seeds must not share vectors")
	}
}
