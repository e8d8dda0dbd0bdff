package verilog

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// FuzzParse: the Verilog reader must never panic; accepted netlists must
// validate, serialise, and re-parse to an equivalent circuit.
func FuzzParse(f *testing.F) {
	f.Add("module m (a, o);\n input a;\n output o;\n not (o, a);\nendmodule\n")
	f.Add("module m (a, b, o);\n input a, b;\n output o;\n wire t;\n nand g1 (t, a, b);\n xor g2 (o, t, a);\nendmodule\n")
	f.Add("module m (a, o);\n input a;\n output o;\n assign o = a;\nendmodule\n")
	f.Add("module m (a, o);\n input a;\n output o;\n assign o = 1'b1;\nendmodule\n")
	f.Add("module m (o);\n output o;\nendmodule")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(strings.NewReader(src))
		s, serr := Stage(strings.NewReader(src))
		if fmt.Sprint(err) != fmt.Sprint(serr) {
			t.Fatalf("Parse error %v, Stage error %v", err, serr)
		}
		if err != nil {
			return
		}
		sameNetlist(t, s, c)
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted circuit invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, c); err != nil {
			return // e.g. PO-name collisions the writer legitimately rejects
		}
		back, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, buf.String())
		}
		if len(c.PIs) <= 16 {
			eq, mm, err := sim.EquivalentExhaustive(c, back)
			if err == nil && !eq {
				t.Fatalf("round trip changed function: %v", mm)
			}
		}
	})
}

// sameNetlist fails unless the staged netlist s reads as the built circuit
// c does through circuit.Netlist: the same signals, each a primary input
// in both or a gate of the same kind reading the same signals in order.
func sameNetlist(t *testing.T, s *circuit.Staged, c *circuit.Circuit) {
	t.Helper()
	names := func(nl circuit.Netlist, ids []circuit.NodeID) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = nl.NodeName(id)
		}
		return out
	}
	for i := range c.Nodes {
		name := c.Nodes[i].Name
		id, ok := s.Lookup(name)
		if !ok || s.NodeName(id) != name {
			t.Fatalf("staged netlist lacks %q", name)
		}
		kind, fanin, gate := s.Gate(id)
		ckind, cfanin, cgate := c.Gate(circuit.NodeID(i))
		if gate != cgate || kind != ckind || !slices.Equal(names(s, fanin), names(c, cfanin)) {
			t.Fatalf("%q: staged %v %v %v, built %v %v %v", name, gate, kind, names(s, fanin), cgate, ckind, names(c, cfanin))
		}
	}
}
