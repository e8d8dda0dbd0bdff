package benchfmt

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/sim"
)

// FuzzParse: the .bench reader must never panic; accepted circuits must
// validate and round-trip.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("INPUT(a)\nOUTPUT(q)\nq = NOT(a)\n")
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = XNOR(a, b)\n")
	f.Add("# name\nINPUT(a)\nOUTPUT(a)\n")
	f.Add("INPUT(a)\nOUTPUT(q)\nq = VDD()\n")
	f.Add("q = DFF(a)\n")
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
			return
		}
		back, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, buf.String())
		}
		if len(c.PIs) <= 16 && len(c.PIs) == len(back.PIs) {
			eq, mm, err := sim.EquivalentExhaustive(c, back)
			if err == nil && !eq {
				t.Fatalf("round trip changed function: %v", mm)
			}
		}
	})
}

// FuzzParseMatchesLegacy: Parse and the legacyParse oracle accept and
// reject the same inputs, and on an accepted one build the same circuit —
// String(), node IDs, fanin and fanout order, POs and version — which
// Write encodes to legacyWrite's bytes. The seeds add suite circuits with
// their gate lines shuffled, so definition order is exercised.
func FuzzParseMatchesLegacy(f *testing.F) {
	f.Add(sample)
	f.Add("INPUT(a)\nOUTPUT(q)\nq = NOT(a)\n")
	f.Add("INPUT(a)\nOUTPUT(a)\nOUTPUT(a)\nOUTPUT(a)\n")
	f.Add("# name  x\r\ninput (a)\r\nOutput(q)\r\nq = nand(a, t)\r\nt = Not(a)\r\n")
	f.Add("INPUT(a)\nOUTPUT(q)\nq = ınv(a)\nıNPUT(b)\n")
	f.Add("INPUT(a)\nOUTPUT(q)\nx = NOT(y)\ny = NOT(x)\nq = AND(a, x)\n")
	f.Add("INPUT(a)\nOUTPUT(q)\nq = AND(a, a)\n")
	f.Add("INPUT(a)\nOUTPUT(q)\nq = NOT(a)\nq = BUFF(a)\n")
	for _, name := range []string{"c432"} {
		f.Add(shuffledSuite(f, name, 1))
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkMatchesLegacy(t, src)
	})
}

// shuffledSuite is suite circuit name in .bench form with its gate lines
// permuted by seed.
func shuffledSuite(tb testing.TB, name string, seed int64) string {
	tb.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := legacyWrite(&buf, spec.Build()); err != nil {
		tb.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	first := 0
	for first < len(lines) && !strings.Contains(lines[first], " = ") {
		first++
	}
	gates := lines[first:]
	rand.New(rand.NewSource(seed)).Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
	return strings.Join(lines, "")
}

// checkMatchesLegacy compares Parse and Write with their oracles on src.
func checkMatchesLegacy(t *testing.T, src string) {
	t.Helper()
	got, err := Parse(strings.NewReader(src))
	want, werr := legacyParse(strings.NewReader(src))
	if (err == nil) != (werr == nil) {
		t.Fatalf("Parse err = %v, legacyParse err = %v", err, werr)
	}
	if err != nil {
		return
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("String() differs:\n%s\nwant:\n%s", g, w)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		g, w := &got.Nodes[i], &want.Nodes[i]
		if g.Name != w.Name || g.IsPI != w.IsPI || g.Kind != w.Kind ||
			!slices.Equal(g.Fanin, w.Fanin) || !slices.Equal(g.Fanout(), w.Fanout()) {
			t.Fatalf("node %d: %+v fanout %v, want %+v fanout %v", i, *g, g.Fanout(), *w, w.Fanout())
		}
	}
	if !slices.Equal(got.PIs, want.PIs) || !slices.Equal(got.POs, want.POs) {
		t.Fatalf("PIs %v POs %v, want %v %v", got.PIs, got.POs, want.PIs, want.POs)
	}
	if got.Version() != want.Version() {
		t.Fatalf("version %d, want %d", got.Version(), want.Version())
	}
	var gb, wb bytes.Buffer
	gerr, werr := Write(&gb, got), legacyWrite(&wb, want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("Write err = %v, legacyWrite err = %v", gerr, werr)
	}
	if gerr == nil && !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("Write bytes differ:\n%s\nwant:\n%s", gb.Bytes(), wb.Bytes())
	}
}

// TestParseMatchesLegacyOnFuzzCorpus replays FuzzParse's committed corpus
// through checkMatchesLegacy, so every odd input it found is compared
// with the oracle on each plain test run.
func TestParseMatchesLegacyOnFuzzCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, ok := strings.Cut(strings.TrimSpace(string(data)), "\nstring(")
		if !ok || !strings.HasSuffix(arg, ")") {
			t.Fatalf("%s: not a one-string corpus entry", p)
		}
		src, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		checkMatchesLegacy(t, src)
	}
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
