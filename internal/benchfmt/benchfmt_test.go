package benchfmt

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

const sample = `
# c17
# 5 inputs, 2 outputs
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)

OUTPUT(G22)
OUTPUT(G23)

G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

// TestParseC17 parses the classic ISCAS c17 netlist (typed from its public
// definition — six NAND2 gates).
func TestParseC17(t *testing.T) {
	c, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "c17" {
		t.Errorf("name = %q", c.Name)
	}
	if len(c.PIs) != 5 || len(c.POs) != 2 || c.NumGates() != 6 {
		t.Fatalf("shape: %d/%d/%d", len(c.PIs), len(c.POs), c.NumGates())
	}
	st := c.Stats()
	if st.ByKind[logic.Nand] != 6 {
		t.Errorf("kinds: %v", st.ByKind)
	}
	// Known c17 response: all inputs 0 → G11 = 1, G16 = NAND(0,1)=1,
	// G10 = 1, G19 = NAND(1,0)=1, G22 = NAND(1,1) = 0, G23 = 0.
	out, err := sim.EvalOne(c, []bool{false, false, false, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != false || out[1] != false {
		t.Errorf("c17(00000) = %v", out)
	}
	// All ones: G10=NAND(1,1)=0, G11=0, G16=NAND(1,0)=1, G19=NAND(0,1)=1,
	// G22=NAND(0,1)=1, G23=NAND(1,1)=0.
	out, err = sim.EvalOne(c, []bool{true, true, true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != true || out[1] != false {
		t.Errorf("c17(11111) = %v", out)
	}
}

func TestRoundTrip(t *testing.T) {
	orig, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	eq, mm, err := sim.EquivalentExhaustive(orig, back)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("round trip differs: %v", mm)
	}
}

func TestAllKindsRoundTrip(t *testing.T) {
	c := circuit.New("kinds")
	a, _ := c.AddPI("a")
	b, _ := c.AddPI("b")
	one, _ := c.AddGate("one", logic.Const1)
	zero, _ := c.AddGate("zero", logic.Const0)
	g1, _ := c.AddGate("g1", logic.And, a, b)
	g2, _ := c.AddGate("g2", logic.Or, g1, one)
	g3, _ := c.AddGate("g3", logic.Xor, g2, zero)
	g4, _ := c.AddGate("g4", logic.Xnor, g3, a)
	g5, _ := c.AddGate("g5", logic.Nor, g4, b)
	g6, _ := c.AddGate("g6", logic.Inv, g5)
	g7, _ := c.AddGate("g7", logic.Buf, g6)
	if err := c.AddPO("out", g7); err != nil { // alias PO
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	eq, mm, err := sim.EquivalentExhaustive(c, back)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("differs: %v", mm)
	}
}

func TestSuiteThroughBench(t *testing.T) {
	// A real generated benchmark survives the .bench round trip.
	spec, err := bench.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	c := spec.Build()
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eq, _, err := sim.EquivalentRandom(c, back, 32, 1)
	if err != nil || !eq {
		t.Fatalf("suite circuit round trip failed: %v %v", eq, err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"dff":        "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n",
		"unknown fn": "INPUT(a)\nOUTPUT(q)\nq = FROB(a)\n",
		"no driver":  "INPUT(a)\nOUTPUT(q)\n",
		"malformed":  "INPUT(a)\nOUTPUT(q)\nq NAND(a, a)\n",
		"bad args":   "INPUT(a)\nOUTPUT(q)\nq = NAND(a, )\n",
		"undefined":  "INPUT(a)\nOUTPUT(q)\nq = NOT(zz)\n",
		"cycle":      "INPUT(a)\nOUTPUT(q)\nx = NOT(y)\ny = NOT(x)\nq = AND(a, x)\n",
		"empty decl": "INPUT()\nOUTPUT(q)\nq = NOT(a)\n",
		"arity":      "INPUT(a)\nOUTPUT(q)\nq = NAND(a)\n",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted invalid input", name)
		}
	}
}

func TestOutOfOrderDefinitions(t *testing.T) {
	src := `
# ooo
INPUT(a)
OUTPUT(q)
q = NOT(t)
t = BUFF(a)
`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.EvalOne(c, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != false {
		t.Error("q should be NOT(a)")
	}
}

// TestLineCap: the scanner's buffer starts small and grows on demand, but
// the line cap stays 1 MiB — a 200 KiB line parses, and a line past 1 MiB
// fails with bufio.ErrTooLong.
func TestLineCap(t *testing.T) {
	src := func(n int) string {
		long := "w" + strings.Repeat("x", n)
		return "INPUT(a)\nINPUT(b)\nOUTPUT(f)\n" + long + " = AND(a, b)\nf = NOT(" + long + ")\n"
	}
	c, err := Parse(strings.NewReader(src(200 << 10)))
	if err != nil {
		t.Fatalf("200 KiB line: %v", err)
	}
	if c.NumGates() != 2 {
		t.Errorf("200 KiB line: %d gates, want 2", c.NumGates())
	}
	if _, err := Parse(strings.NewReader(src(1 << 20))); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("line past 1 MiB: err = %v, want bufio.ErrTooLong", err)
	}
}
