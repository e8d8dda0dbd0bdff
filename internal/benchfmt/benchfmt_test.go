package benchfmt

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
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

// TestParseMatchesLegacyOnSuite: every suite circuit, in written order and
// with its gate lines shuffled, parses to legacyParse's circuit — same node
// IDs, fanin and fanout order, POs and version — and writes legacyWrite's
// bytes.
func TestParseMatchesLegacyOnSuite(t *testing.T) {
	for _, name := range bench.Names() {
		for seed := int64(0); seed < 3; seed++ {
			src := shuffledSuite(t, name, seed)
			if _, err := Parse(strings.NewReader(src)); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			checkMatchesLegacy(t, src)
		}
	}
}

// TestEditsStayInTheirSlab: Parse builds fanins and fanouts in shared
// slabs, so an edit of one gate must not reach any other node's pins. Each
// edit below grows, shrinks or rewires one gate of c880; only that gate's
// fanin and its sources' fanouts may change.
func TestEditsStayInTheirSlab(t *testing.T) {
	edits := map[string]func(c *circuit.Circuit) (g circuit.NodeID, srcs []circuit.NodeID, err error){
		"AddFanin": func(c *circuit.Circuit) (circuit.NodeID, []circuit.NodeID, error) {
			g, p := pickGate(c, func(nd *circuit.Node) bool { return !nd.Kind.FixedFanin() })
			return g, []circuit.NodeID{p}, c.AddFanin(g, p)
		},
		"ConvertGate": func(c *circuit.Circuit) (circuit.NodeID, []circuit.NodeID, error) {
			g, p := pickGate(c, func(nd *circuit.Node) bool { return nd.Kind == logic.Inv })
			return g, []circuit.NodeID{p}, c.ConvertGate(g, logic.Nand, p)
		},
		"ReplaceFanin": func(c *circuit.Circuit) (circuit.NodeID, []circuit.NodeID, error) {
			g, p := pickGate(c, func(nd *circuit.Node) bool { return true })
			old := c.Nodes[g].Fanin[0]
			return g, []circuit.NodeID{p, old}, c.ReplaceFanin(g, 0, p)
		},
		"RemoveFanin then AddFanin": func(c *circuit.Circuit) (circuit.NodeID, []circuit.NodeID, error) {
			g, p := pickGate(c, func(nd *circuit.Node) bool { return len(nd.Fanin) >= 3 })
			old := c.Nodes[g].Fanin[0]
			if err := c.RemoveFanin(g, old); err != nil {
				return g, nil, err
			}
			if err := c.AddFanin(g, p); err != nil {
				return g, nil, err
			}
			return g, []circuit.NodeID{p, old}, c.AddFanin(g, old)
		},
	}
	src := shuffledSuite(t, "c880", 1)
	for name, edit := range edits {
		c, err := Parse(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		type pins struct{ fanin, fanout []circuit.NodeID }
		before := make([]pins, len(c.Nodes))
		for i := range c.Nodes {
			before[i] = pins{slices.Clone(c.Nodes[i].Fanin), slices.Clone(c.Nodes[i].Fanout())}
		}
		g, srcs, err := edit(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range c.Nodes {
			id := circuit.NodeID(i)
			if id != g && !slices.Equal(c.Nodes[i].Fanin, before[i].fanin) {
				t.Errorf("%s on %q changed the fanin of %q", name, c.Nodes[g].Name, c.Nodes[i].Name)
			}
			if !slices.Contains(srcs, id) && !slices.Equal(c.Nodes[i].Fanout(), before[i].fanout) {
				t.Errorf("%s on %q changed the fanout of %q", name, c.Nodes[g].Name, c.Nodes[i].Name)
			}
		}
	}
}

// pickGate returns a gate matching ok whose successor in ID order is a
// gate with fanin, and a primary input it does not read whose successor
// has fanout — so a slab written past either list's end shows.
func pickGate(c *circuit.Circuit, ok func(*circuit.Node) bool) (g, pi circuit.NodeID) {
	g, pi = circuit.None, circuit.None
	for i := len(c.PIs); i+1 < len(c.Nodes) && g == circuit.None; i++ {
		if ok(&c.Nodes[i]) && len(c.Nodes[i+1].Fanin) > 0 {
			g = circuit.NodeID(i)
		}
	}
	for _, p := range c.PIs[:len(c.PIs)-1] {
		if !slices.Contains(c.Nodes[g].Fanin, p) && len(c.Nodes[p+1].Fanout()) > 0 {
			return g, p
		}
	}
	panic("no primary input to add")
}

// TestReversedChain: a 100 000-gate NOT chain written last gate first
// takes the old reader 100 000 passes; it parses in one, numbered from the
// chain's head.
func TestReversedChain(t *testing.T) {
	const n = 100000
	var b strings.Builder
	fmt.Fprintf(&b, "INPUT(g0)\nOUTPUT(g%d)\n", n)
	for i := n; i >= 1; i-- {
		fmt.Fprintf(&b, "g%d = NOT(g%d)\n", i, i-1)
	}
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

// TestLineCapBoundary: Parse fails with bufio.ErrTooLong exactly where
// legacyParse's scanner did — a line of 1 MiB or more, counting a CR but
// not the newline — whether the line ends in LF, CRLF or the end of input.
func TestLineCapBoundary(t *testing.T) {
	for _, n := range []int{1<<20 - 2, 1<<20 - 1, 1 << 20} {
		for _, end := range []string{"\n", "\r\n", ""} {
			line := "f = NOT(a)"
			line += strings.Repeat(" ", n-len(line)-len(strings.TrimSuffix(end, "\n")))
			src := "INPUT(a)\nOUTPUT(f)\n" + line + end
			_, err := Parse(strings.NewReader(src))
			_, werr := legacyParse(strings.NewReader(src))
			if errors.Is(err, bufio.ErrTooLong) != errors.Is(werr, bufio.ErrTooLong) || (err == nil) != (werr == nil) {
				t.Errorf("%d-byte line ending %q: err = %v, legacy err = %v", n, end, err, werr)
			}
		}
	}
}

// TestParseJunkAllocs: blank lines, comments and commas stage nothing, so
// parsing a multi-MiB body of them allocates a small multiple of the body
// (its one copy), not an amount per newline or comma.
func TestParseJunkAllocs(t *testing.T) {
	const half = 2 << 20
	comment := "#" + strings.Repeat(",", 62) + "\n"
	body := strings.Repeat("\n", half) + strings.Repeat(comment, half/len(comment))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Parse(strings.NewReader(body))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body with no inputs parsed")
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*len(body)); got > limit {
		t.Errorf("parsing %d bytes of blank lines and comments allocated %d bytes, want at most %d", len(body), got, limit)
	}
}
