package circuit_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
)

// sprintfText is the fmt-based renderer String replaced, kept as the
// oracle for its bytes: registry.DesignDigest hashes this text, so every
// stored digest depends on it staying byte-identical.
func sprintfText(c *circuit.Circuit) string {
	var b []byte
	b = append(b, fmt.Sprintf("circuit %s (%d PI, %d PO, %d gates)\n", c.Name, len(c.PIs), len(c.POs), c.NumGates())...)
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if nd.IsPI {
			b = append(b, fmt.Sprintf("  %4d %-16s PI\n", i, nd.Name)...)
			continue
		}
		b = append(b, fmt.Sprintf("  %4d %-16s %-6v(", i, nd.Name, nd.Kind)...)
		for j, f := range nd.Fanin {
			if j > 0 {
				b = append(b, ", "...)
			}
			b = append(b, c.Nodes[f].Name...)
		}
		b = append(b, ")\n"...)
	}
	pos := append([]circuit.PO(nil), c.POs...)
	sort.Slice(pos, func(i, j int) bool { return pos[i].Name < pos[j].Name })
	for _, po := range pos {
		b = append(b, fmt.Sprintf("  PO %-16s <- %s\n", po.Name, c.Nodes[po.Driver].Name)...)
	}
	return string(b)
}

// chunks records each Write it receives.
type chunks struct {
	buf   bytes.Buffer
	sizes []int
}

func (w *chunks) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.buf.Write(p)
}

// checkText requires String and WriteText to produce the oracle's bytes.
func checkText(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	want := sprintfText(c)
	if got := c.String(); got != want {
		t.Fatalf("%s: String differs from the fmt oracle:\n got %q\nwant %q", c.Name, got, want)
	}
	var w chunks
	if err := c.WriteText(&w); err != nil {
		t.Fatal(err)
	}
	if got := w.buf.String(); got != want {
		t.Fatalf("%s: WriteText differs from the fmt oracle", c.Name)
	}
	for i, n := range w.sizes[:len(w.sizes)-1] {
		if n > 3*4096 {
			t.Fatalf("%s: write %d is %d bytes; WriteText should stream in chunks", c.Name, i, n)
		}
	}
}

func TestTextMatchesSprintfOnSuite(t *testing.T) {
	for _, spec := range append(bench.Suite(), bench.Extras()...) {
		checkText(t, spec.Build())
	}
}

// FuzzText renders a small circuit whose names are fuzzed: multibyte runes,
// invalid UTF-8 and names longer than the 16-rune padding all go through
// the hand-written padding that replaced fmt's %-16s and %-6v.
func FuzzText(f *testing.F) {
	f.Add("circuit", "a", "g", "out", uint8(logic.And))
	f.Add("ñandú", "ñññññññññññññññññ", "日本語のゲート名", "出力", uint8(logic.Xor))
	f.Add("x", "a_name_longer_than_sixteen", "\xff\xfe", "é", uint8(200))
	f.Add("", "😀😀😀😀😀😀😀😀😀😀😀😀😀😀😀", "g", "😀", uint8(logic.Nand))
	f.Fuzz(func(t *testing.T, name, pi, gate, po string, kind uint8) {
		if pi == "" || gate == "" || po == "" || pi == gate {
			return
		}
		c := circuit.New(name)
		a, err := c.AddPI(pi)
		if err != nil {
			return
		}
		k := logic.Kind(kind)
		if !k.Valid() || k.MinFanin() > 2 || k == logic.Const0 || k == logic.Const1 {
			k = logic.And
		}
		g, err := c.AddGate(gate, k, a, a)
		if err != nil {
			return
		}
		if c.AddPO(po, g) != nil || c.AddPO(po+"2", a) != nil {
			return
		}
		// An out-of-range kind renders as Kind(N): written past
		// validation to reach String's fallback too.
		c.Nodes[g].Kind = logic.Kind(kind)
		checkText(t, c)
		if !strings.Contains(c.String(), gate) {
			t.Fatalf("gate name %q missing", gate)
		}
	})
}
