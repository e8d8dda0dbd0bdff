package verilog

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

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

func TestWriteContainsStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, fig1(t)); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, frag := range []string{"module fig1", "input A", "output F", "and g", "or g", "endmodule"} {
		if !strings.Contains(s, frag) {
			t.Errorf("output missing %q:\n%s", frag, s)
		}
	}
}

func TestRoundTripEquivalence(t *testing.T) {
	orig := fig1(t)
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	eq, mm, err := sim.EquivalentExhaustive(orig, back)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("round trip not equivalent: %v", mm)
	}
	if back.Name != "fig1" || back.NumGates() != 3 {
		t.Errorf("shape changed: %s / %d gates", back.Name, back.NumGates())
	}
}

func TestPOAliasAndConstants(t *testing.T) {
	c := circuit.New("alias")
	a, _ := c.AddPI("a")
	one, _ := c.AddGate("tie1", logic.Const1)
	zero, _ := c.AddGate("tie0", logic.Const0)
	g, _ := c.AddGate("g", logic.Xor, a, one)
	h, _ := c.AddGate("h", logic.Or, g, zero)
	// PO named differently from its driver → alias assign.
	if err := c.AddPO("out", h); err != nil {
		t.Fatal(err)
	}
	// Second PO sharing the same driver.
	if err := c.AddPO("out_copy", h); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "assign tie1 = 1'b1;") || !strings.Contains(s, "assign tie0 = 1'b0;") {
		t.Errorf("constants not emitted:\n%s", s)
	}
	if !strings.Contains(s, "assign out = h;") {
		t.Errorf("PO alias not emitted:\n%s", s)
	}
	back, err := Parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	eq, mm, err := sim.EquivalentExhaustive(c, back)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("alias round trip differs: %v", mm)
	}
}

func TestPOCollisionRejected(t *testing.T) {
	c := circuit.New("bad")
	a, _ := c.AddPI("a")
	g, _ := c.AddGate("g", logic.Inv, a)
	h, _ := c.AddGate("h", logic.Inv, g)
	// PO named "g" but driven by h: collides with existing node g.
	if err := c.AddPO("g", h); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err == nil {
		t.Error("collision between PO name and unrelated node accepted")
	}
}

func TestBadIdentifierRejected(t *testing.T) {
	c := circuit.New("bad")
	a, _ := c.AddPI("a[0]")
	g, _ := c.AddGate("g", logic.Inv, a)
	if err := c.AddPO("o", g); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err == nil {
		t.Error("bracketed identifier accepted by plain-identifier writer")
	}
}

func TestParseOutOfOrderDefinitions(t *testing.T) {
	// Gates referencing wires defined later in the file must still parse.
	src := `
module m (a, b, o);
  input a, b;
  output o;
  wire t1, t2;
  and g1 (o, t1, t2);
  not g2 (t1, a);
  nor g3 (t2, a, b);
endmodule
`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 3 {
		t.Errorf("gates = %d", c.NumGates())
	}
	out, err := sim.EvalOne(c, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	// a=0,b=0: t1=1, t2=1, o=1.
	if !out[0] {
		t.Error("functional mismatch after out-of-order parse")
	}
}

func TestParseInstanceNameOptional(t *testing.T) {
	src := "module m (a, o);\n input a;\n output o;\n not (o, a);\nendmodule\n"
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 1 {
		t.Error("anonymous instance not parsed")
	}
}

func TestParseBufferAssign(t *testing.T) {
	src := `
module m (a, o);
  input a;
  output o;
  wire t;
  assign t = a;
  not g (o, t);
endmodule
`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	id, ok := c.Lookup("t")
	if !ok || c.Nodes[id].Kind != logic.Buf {
		t.Error("wire assign should become a BUF node")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no module":   "input a;\n",
		"bad name":    "module 1m (a);\nendmodule",
		"no endmod":   "module m (a, o);\n input a;\n output o;\n not (o, a);\n",
		"unknown stm": "module m (a, o);\n input a;\n output o;\n flipflop (o, a);\nendmodule",
		"cycle":       "module m (a, o);\n input a;\n output o;\n wire x, y;\n not (x, y);\n not (y, x);\n and (o, a, x);\nendmodule",
		"no driver":   "module m (a, o);\n input a;\n output o;\nendmodule",
		"bad assign":  "module m (a, o);\n input a;\n output o;\n assign o = 2'b10;\nendmodule",
		"short prim":  "module m (a, o);\n input a;\n output o;\n not (o);\nendmodule",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted invalid Verilog", name)
		}
	}
}

func TestWideGatesRoundTrip(t *testing.T) {
	c := circuit.New("wide")
	var pins []circuit.NodeID
	for _, n := range []string{"a", "b", "cc", "d"} {
		id, _ := c.AddPI(n)
		pins = append(pins, id)
	}
	g1, _ := c.AddGate("g1", logic.Nand, pins...)
	g2, _ := c.AddGate("g2", logic.Xnor, g1, pins[0])
	bufg, _ := c.AddGate("g3", logic.Buf, g2)
	if err := c.AddPO("g3", bufg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eq, mm, err := sim.EquivalentExhaustive(c, back)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("wide round trip differs: %v", mm)
	}
}

// TestLineCap: the scanner's buffer starts small and grows on demand, but
// the line cap stays 1 MiB — a 200 KiB line parses, and a line past 1 MiB
// fails with bufio.ErrTooLong.
func TestLineCap(t *testing.T) {
	src := func(n int) string {
		long := "w" + strings.Repeat("x", n)
		return "module m (a, b, o);\n input a, b;\n output o;\n wire " + long + ";\n and g1 (" + long + ", a, b);\n not g2 (o, " + long + ");\nendmodule\n"
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

// TestReversedChain: a 100 000-gate NOT chain instantiated last gate first
// took the old deferred-pass loop 100 000 passes; it now parses in one,
// numbered from the chain's head.
func TestReversedChain(t *testing.T) {
	const n = 100000
	var b strings.Builder
	fmt.Fprintf(&b, "module chain (g0, g%d);\n  input g0;\n  output g%d;\n", n, n)
	for i := n; i >= 1; i-- {
		fmt.Fprintf(&b, "  not (g%d, g%d);\n", i, i-1)
	}
	b.WriteString("endmodule\n")
	c, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, n / 2, n} {
		if want := fmt.Sprintf("g%d", i); c.Nodes[i].Name != want {
			t.Errorf("node %d is %q, want %q", i, c.Nodes[i].Name, want)
		}
	}
}
