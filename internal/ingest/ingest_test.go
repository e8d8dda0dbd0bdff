package ingest

import (
	"bytes"
	"context"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/verilog"
)

// suiteNetlists returns every suite circuit and extra written out in
// .bench and in Verilog, keyed "name/format".
func suiteNetlists(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, spec := range append(bench.Suite(), bench.Extras()...) {
		c := spec.Build()
		for format, write := range map[string]func(io.Writer, *circuit.Circuit) error{"bench": benchfmt.Write, "v": verilog.Write} {
			var buf bytes.Buffer
			if err := write(&buf, c); err != nil {
				t.Fatal(err)
			}
			out[spec.Name+"/"+format] = buf.Bytes()
		}
	}
	return out
}

// rebuild copies c node by node through the circuit API, so the copy has
// none of the memos the readers and Sweep set.
func rebuild(t testing.TB, c *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	r := circuit.New(c.Name)
	for i := range c.Nodes {
		n := &c.Nodes[i]
		var err error
		if n.IsPI {
			_, err = r.AddPI(n.Name)
		} else {
			_, err = r.AddGate(n.Name, n.Kind, n.Fanin...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AddPOs(c.POs); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestAnalyzeMatchesUnmemoized: on every suite circuit and extra, read
// from .bench and from Verilog bytes, Analyze gives the digest of the
// analysis that runs the full Validate and topological sort itself: that
// of the parsed circuit rebuilt without memos, then swept.
func TestAnalyzeMatchesUnmemoized(t *testing.T) {
	for key, data := range suiteNetlists(t) {
		_, format, _ := strings.Cut(key, "/")
		a, err := Analyze(context.Background(), format, data)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		c, err := Parse(format, data)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		swept, _ := rebuild(t, c).Sweep()
		want, err := core.Analyze(swept, core.DefaultOptions(cell.Default()))
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if a.Digest() != want.Digest() {
			t.Fatalf("%s: digest %s, want %s", key, a.Digest(), want.Digest())
		}
	}
}

// TestSweptRemovesDeadLogic: a netlist written out of topological order
// with dead gates, an unused input and a dead constant reads into the
// swept circuit, in both formats: three inputs and the four gates the
// outputs reach.
func TestSweptRemovesDeadLogic(t *testing.T) {
	for format, src := range map[string]string{
		"bench": "# dead\nINPUT(a)\nINPUT(b)\nINPUT(u)\nOUTPUT(q)\nOUTPUT(r)\n" +
			"q = NAND(t, k)\nd1 = NOT(q)\nt = OR(a, b)\nk = VDD()\nd2 = AND(d1, t)\nz = GND()\nr = XOR(k, a)\n",
		"v": "module dead (a, b, u, q, r);\n input a, b, u;\n output q, r;\n wire t, k, d1, d2, z;\n" +
			" nand g0 (q, t, k);\n not g1 (d1, q);\n or g2 (t, a, b);\n and g3 (d2, d1, t);\n xor g4 (r, k, a);\n" +
			" assign k = 1'b1;\n assign z = 1'b0;\nendmodule\n",
	} {
		got, err := Swept(format, []byte(src))
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		var names []string
		for i := range got.Nodes {
			names = append(names, got.Nodes[i].Name)
		}
		slices.Sort(names)
		if want := []string{"a", "b", "k", "q", "r", "t", "u"}; !slices.Equal(names, want) || len(got.PIs) != 3 {
			t.Fatalf("%s: nodes %v, %d inputs after the sweep, want %v and 3", format, names, len(got.PIs), want)
		}
	}
}
