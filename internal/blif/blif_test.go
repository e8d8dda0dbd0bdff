package blif

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

const sample = `
# A small sample model
.model ex1
.inputs a b c \
        d
.outputs f g
.names a b t1
11 1
.names t1 c d f
1-- 1
-11 1
.names c g   # inverter
0 1
.end
`

func TestParseSample(t *testing.T) {
	n, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if n.Model != "ex1" {
		t.Errorf("model = %q", n.Model)
	}
	if len(n.Inputs) != 4 || n.Inputs[3] != "d" {
		t.Errorf("inputs = %v (continuation line mishandled?)", n.Inputs)
	}
	if len(n.Outputs) != 2 {
		t.Errorf("outputs = %v", n.Outputs)
	}
	if len(n.Nodes) != 3 {
		t.Fatalf("nodes = %v", n.SortedNodeNames())
	}
	t1 := n.Nodes[0]
	if t1.Name != "t1" || len(t1.Covers) != 1 || t1.Covers[0].Inputs != "11" {
		t.Errorf("t1 = %+v", t1)
	}
	f := n.Nodes[1]
	if f.Name != "f" || len(f.Covers) != 2 {
		t.Errorf("f = %+v", f)
	}
	g := n.Nodes[2]
	if g.Name != "g" || g.Covers[0].Inputs != "0" || g.Covers[0].Output != '1' {
		t.Errorf("g = %+v", g)
	}
}

func TestRoundTrip(t *testing.T) {
	n, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	n2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if n2.Model != n.Model || len(n2.Nodes) != len(n.Nodes) ||
		len(n2.Inputs) != len(n.Inputs) || len(n2.Outputs) != len(n.Outputs) {
		t.Fatalf("round trip changed shape: %+v vs %+v", n2, n)
	}
	for i := range n.Nodes {
		a, b := n.Nodes[i], n2.Nodes[i]
		if a.Name != b.Name || len(a.Covers) != len(b.Covers) {
			t.Errorf("node %d changed: %+v vs %+v", i, a, b)
		}
		for j := range a.Covers {
			if a.Covers[j] != b.Covers[j] {
				t.Errorf("cover %d/%d changed", i, j)
			}
		}
	}
}

func TestConstNodes(t *testing.T) {
	src := `
.model consts
.inputs a
.outputs z o u
.names z
.names o
1
.names a u
1 1
.end
`
	n, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := n.Nodes[0].IsConst(); !ok || v {
		t.Errorf("z should be const 0, got %v %v", v, ok)
	}
	if v, ok := n.Nodes[1].IsConst(); !ok || !v {
		t.Errorf("o should be const 1, got %v %v", v, ok)
	}
	if _, ok := n.Nodes[2].IsConst(); ok {
		t.Error("u is not a constant")
	}
	// Round-trip constants.
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(&buf); err != nil {
		t.Fatalf("reparse consts: %v", err)
	}
}

func TestManyInputsWrapped(t *testing.T) {
	// Writer wraps long signal lists with continuations; parser must rejoin.
	n := &Netlist{Model: "wide", Outputs: []string{"y"}}
	for i := 0; i < 25; i++ {
		n.Inputs = append(n.Inputs, "in"+string(rune('a'+i%26))+string(rune('0'+i/26)))
	}
	n.Nodes = []Node{{Name: "y", Inputs: []string{n.Inputs[0]}, Covers: []Cover{{Inputs: "1", Output: '1'}}}}
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\\") {
		t.Error("expected continuation in wrapped input list")
	}
	n2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(n2.Inputs) != 25 {
		t.Errorf("reparsed %d inputs, want 25", len(n2.Inputs))
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"latch":          ".model m\n.inputs a\n.outputs q\n.latch a q\n.end",
		"no inputs":      ".model m\n.outputs q\n.names q\n.end",
		"no outputs":     ".model m\n.inputs a\n.end",
		"bad literal":    ".model m\n.inputs a\n.outputs q\n.names a q\n2 1\n.end",
		"bad output bit": ".model m\n.inputs a\n.outputs q\n.names a q\n1 x\n.end",
		"width mismatch": ".model m\n.inputs a b\n.outputs q\n.names a b q\n1 1\n.end",
		"mixed phase":    ".model m\n.inputs a b\n.outputs q\n.names a b q\n11 1\n00 0\n.end",
		"undefined sig":  ".model m\n.inputs a\n.outputs q\n.names zz q\n1 1\n.end",
		"undefined out":  ".model m\n.inputs a\n.outputs q\n.names a t\n1 1\n.end",
		"double def":     ".model m\n.inputs a\n.outputs q\n.names a q\n1 1\n.names a q\n0 1\n.end",
		"stray cover":    ".model m\n.inputs a\n.outputs q\n11 1\n.names a q\n1 1\n.end",
		"names bare":     ".model m\n.inputs a\n.outputs q\n.names\n.end",
		"const two tok":  ".model m\n.inputs a\n.outputs q\n.names q\n1 1\n.end",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted invalid BLIF", name)
		}
	}
}

func TestUnknownDirectiveIgnored(t *testing.T) {
	src := ".model m\n.inputs a\n.outputs q\n.default_input_arrival 0 0\n.names a q\n1 1\n.end"
	if _, err := Parse(strings.NewReader(src)); err != nil {
		t.Fatalf("unknown directive should be ignored: %v", err)
	}
}

func TestMissingEnd(t *testing.T) {
	src := ".model m\n.inputs a\n.outputs q\n.names a q\n1 1\n"
	n, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("EOF without .end should be tolerated: %v", err)
	}
	if len(n.Nodes) != 1 {
		t.Error("node lost")
	}
}

// TestLineCap: the scanner's buffer starts small and grows on demand, but
// the line cap stays 1 MiB — a 200 KiB line parses, and a line past 1 MiB
// fails with bufio.ErrTooLong.
func TestLineCap(t *testing.T) {
	src := func(n int) string {
		long := "w" + strings.Repeat("x", n)
		return ".model m\n.inputs a b\n.outputs f\n.names a b " + long + "\n11 1\n.names " + long + " f\n0 1\n.end\n"
	}
	n, err := Parse(strings.NewReader(src(200 << 10)))
	if err != nil {
		t.Fatalf("200 KiB line: %v", err)
	}
	if len(n.Nodes) != 2 {
		t.Errorf("200 KiB line: %d nodes, want 2", len(n.Nodes))
	}
	if _, err := Parse(strings.NewReader(src(1 << 20))); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("line past 1 MiB: err = %v, want bufio.ErrTooLong", err)
	}
}
