package techmap

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/blif"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

// evalBlif evaluates a BLIF netlist directly from its covers (reference
// semantics for the mapper).
func evalBlif(n *blif.Netlist, in map[string]bool) map[string]bool {
	vals := make(map[string]bool, len(in)+len(n.Nodes))
	for k, v := range in {
		vals[k] = v
	}
	remaining := make([]*blif.Node, len(n.Nodes))
	for i := range n.Nodes {
		remaining[i] = &n.Nodes[i]
	}
	for len(remaining) > 0 {
		var deferred []*blif.Node
		for _, nd := range remaining {
			ready := true
			for _, s := range nd.Inputs {
				if _, ok := vals[s]; !ok {
					ready = false
				}
			}
			if !ready {
				deferred = append(deferred, nd)
				continue
			}
			vals[nd.Name] = evalNode(nd, vals)
		}
		if len(deferred) == len(remaining) {
			panic("cyclic blif")
		}
		remaining = deferred
	}
	out := map[string]bool{}
	for _, o := range n.Outputs {
		out[o] = vals[o]
	}
	return out
}

func evalNode(nd *blif.Node, vals map[string]bool) bool {
	if v, ok := nd.IsConst(); ok {
		return v
	}
	phase1 := nd.Covers[0].Output == '1'
	hit := false
	for _, cv := range nd.Covers {
		match := true
		for i, ch := range []byte(cv.Inputs) {
			v := vals[nd.Inputs[i]]
			if ch == '1' && !v || ch == '0' && v {
				match = false
				break
			}
		}
		if match {
			hit = true
			break
		}
	}
	if phase1 {
		return hit
	}
	return !hit
}

// checkMapped exhaustively compares a BLIF model against its mapped circuit.
func checkMapped(t *testing.T, src string, opts Options) *circuit.Circuit {
	t.Helper()
	n, err := blif.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Map(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	lib := cell.Default()
	if ok, bad := cell.Mappable(lib, c); !ok {
		t.Fatalf("mapped circuit has unmappable gate %q", bad)
	}
	if len(n.Inputs) > 16 {
		t.Fatalf("test model too wide for exhaustive check")
	}
	for m := 0; m < 1<<uint(len(n.Inputs)); m++ {
		in := map[string]bool{}
		var inSlice []bool
		for i, name := range n.Inputs {
			v := m>>uint(i)&1 == 1
			in[name] = v
			inSlice = append(inSlice, v)
		}
		want := evalBlif(n, in)
		got, err := sim.EvalOne(c, inSlice)
		if err != nil {
			t.Fatal(err)
		}
		for i, po := range c.POs {
			if got[i] != want[po.Name] {
				t.Fatalf("input %v: PO %q = %v, want %v", in, po.Name, got[i], want[po.Name])
			}
		}
	}
	return c
}

func TestMapSimpleSOP(t *testing.T) {
	src := `
.model m
.inputs a b c
.outputs f
.names a b c f
11- 1
--1 1
.end
`
	c := checkMapped(t, src, Options{MaxFanin: 4})
	if c.NumGates() == 0 {
		t.Error("no gates produced")
	}
}

func TestMapOffsetPhase(t *testing.T) {
	// f defined by its OFF-set.
	src := `
.model m
.inputs a b
.outputs f
.names a b f
11 0
00 0
.end
`
	checkMapped(t, src, Options{MaxFanin: 4})
}

func TestMapInverterAndBuffer(t *testing.T) {
	src := `
.model m
.inputs a
.outputs f g
.names a f
0 1
.names a g
1 1
.end
`
	c := checkMapped(t, src, Options{MaxFanin: 4})
	f, _ := c.Lookup("f")
	if c.Nodes[f].Kind != logic.Inv {
		t.Errorf("f mapped to %v, want INV", c.Nodes[f].Kind)
	}
}

func TestMapConstants(t *testing.T) {
	src := `
.model m
.inputs a
.outputs z o f
.names z
.names o
1
.names a z2 f
11 1
.names z2
1
.end
`
	checkMapped(t, src, Options{MaxFanin: 4})
}

func TestMapWideCoverBounded(t *testing.T) {
	// 9-input product must be decomposed into ≤4-input gates.
	src := `
.model m
.inputs a b c d e f g h i
.outputs y
.names a b c d e f g h i y
111111111 1
.end
`
	n, err := blif.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Map(n, Options{MaxFanin: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Nodes {
		if !c.Nodes[i].IsPI && len(c.Nodes[i].Fanin) > 4 {
			t.Errorf("gate %q has fanin %d > 4", c.Nodes[i].Name, len(c.Nodes[i].Fanin))
		}
	}
	// Semantics: y = AND of all 9.
	in := make([]bool, 9)
	for i := range in {
		in[i] = true
	}
	got, _ := sim.EvalOne(c, in)
	if !got[0] {
		t.Error("all-ones should give 1")
	}
	in[4] = false
	got, _ = sim.EvalOne(c, in)
	if got[0] {
		t.Error("one zero should give 0")
	}
}

func TestMapTautologyRow(t *testing.T) {
	// A row of all don't-cares makes the node constant.
	src := `
.model m
.inputs a b
.outputs y
.names a b y
-- 1
.end
`
	c := checkMapped(t, src, Options{MaxFanin: 4})
	y, _ := c.Lookup("y")
	if c.Nodes[y].Kind != logic.Const1 {
		t.Errorf("tautology mapped to %v", c.Nodes[y].Kind)
	}
}

func TestNandifyMergesAndCollapses(t *testing.T) {
	c := circuit.New("n")
	a, _ := c.AddPI("a")
	b, _ := c.AddPI("b")
	g1, _ := c.AddGate("g1", logic.And, a, b)
	g2, _ := c.AddGate("g2", logic.Inv, g1)
	g3, _ := c.AddGate("g3", logic.Or, g2, a)
	g4, _ := c.AddGate("g4", logic.Inv, g3)
	bufg, _ := c.AddGate("g5", logic.Buf, g4)
	g6, _ := c.AddGate("g6", logic.Xor, bufg, b)
	if err := c.AddPO("o", g6); err != nil {
		t.Fatal(err)
	}
	out := Nandify(c)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	eq, mm, err := sim.EquivalentExhaustive(c, out)
	if err != nil || !eq {
		t.Fatalf("Nandify changed function: %v %v", mm, err)
	}
	// g2 should now be a NAND(a,b), g4 a NOR, g5 gone.
	id2, ok := out.Lookup("g2")
	if !ok || out.Nodes[id2].Kind != logic.Nand {
		t.Error("INV(AND) not merged into NAND")
	}
	id4, ok := out.Lookup("g4")
	if !ok || out.Nodes[id4].Kind != logic.Nor {
		t.Error("INV(OR) not merged into NOR")
	}
	if _, ok := out.Lookup("g5"); ok {
		t.Error("BUF not collapsed")
	}
	if out.NumGates() >= c.NumGates() {
		t.Errorf("Nandify did not shrink: %d → %d", c.NumGates(), out.NumGates())
	}
}

func TestNandifyKeepsSharedInner(t *testing.T) {
	// AND fanning out twice must NOT be absorbed.
	c := circuit.New("n")
	a, _ := c.AddPI("a")
	b, _ := c.AddPI("b")
	g1, _ := c.AddGate("g1", logic.And, a, b)
	g2, _ := c.AddGate("g2", logic.Inv, g1)
	g3, _ := c.AddGate("g3", logic.Or, g1, g2)
	if err := c.AddPO("o", g3); err != nil {
		t.Fatal(err)
	}
	out := Nandify(c)
	eq, _, err := sim.EquivalentExhaustive(c, out)
	if err != nil || !eq {
		t.Fatal("Nandify broke shared-fanout case")
	}
	id, ok := out.Lookup("g1")
	if !ok || out.Nodes[id].Kind != logic.And {
		t.Error("shared AND wrongly absorbed")
	}
}

func TestNandifyKeepsPODrivingBuf(t *testing.T) {
	c := circuit.New("n")
	a, _ := c.AddPI("a")
	b, _ := c.AddPI("b")
	g1, _ := c.AddGate("g1", logic.And, a, b)
	bufg, _ := c.AddGate("obuf", logic.Buf, g1)
	if err := c.AddPO("obuf", bufg); err != nil {
		t.Fatal(err)
	}
	out := Nandify(c)
	if _, ok := out.Lookup("obuf"); !ok {
		t.Fatal("PO-driving BUF collapsed away")
	}
	eq, _, err := sim.EquivalentExhaustive(c, out)
	if err != nil || !eq {
		t.Fatal("function changed")
	}
}

// TestMapRandomCovers: property test on random SOP models against the
// reference evaluator.
func TestMapRandomCovers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nIn := 2 + rng.Intn(5)
		names := make([]string, nIn)
		for i := range names {
			names[i] = "x" + string(rune('a'+i))
		}
		n := &blif.Netlist{Model: "r", Inputs: names, Outputs: []string{"y"}}
		nCovers := 1 + rng.Intn(5)
		phase := byte('1')
		if rng.Intn(4) == 0 {
			phase = '0'
		}
		var covers []blif.Cover
		for i := 0; i < nCovers; i++ {
			row := make([]byte, nIn)
			allDC := true
			for j := range row {
				switch rng.Intn(3) {
				case 0:
					row[j] = '0'
					allDC = false
				case 1:
					row[j] = '1'
					allDC = false
				default:
					row[j] = '-'
				}
			}
			if allDC {
				row[0] = '1'
			}
			covers = append(covers, blif.Cover{Inputs: string(row), Output: phase})
		}
		n.Nodes = []blif.Node{{Name: "y", Inputs: names, Covers: covers}}
		for _, nandnor := range []bool{false, true} {
			c, err := Map(n, Options{MaxFanin: 3, NandNor: nandnor})
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			for m := 0; m < 1<<uint(nIn); m++ {
				in := map[string]bool{}
				var inSlice []bool
				for i, nm := range names {
					v := m>>uint(i)&1 == 1
					in[nm] = v
					inSlice = append(inSlice, v)
				}
				want := evalBlif(n, in)["y"]
				got, err := sim.EvalOne(c, inSlice)
				if err != nil {
					return false
				}
				if got[0] != want {
					t.Logf("seed %d nandnor=%v input %v: got %v want %v", seed, nandnor, in, got[0], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestReduceExported(t *testing.T) {
	c := circuit.New("r")
	var pins []circuit.NodeID
	for i := 0; i < 11; i++ {
		id, _ := c.AddPI("p" + string(rune('a'+i)))
		pins = append(pins, id)
	}
	root, err := Reduce(c, "all", logic.And, pins...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddPO("all", root); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range c.Nodes {
		if !c.Nodes[i].IsPI && len(c.Nodes[i].Fanin) > 4 {
			t.Errorf("Reduce produced fanin %d", len(c.Nodes[i].Fanin))
		}
	}
	in := make([]bool, 11)
	for i := range in {
		in[i] = true
	}
	got, _ := sim.EvalOne(c, in)
	if !got[0] {
		t.Error("AND reduce of all-ones != 1")
	}
	in[7] = false
	got, _ = sim.EvalOne(c, in)
	if got[0] {
		t.Error("AND reduce with a zero != 0")
	}
}

func TestMapDependencyOrder(t *testing.T) {
	// Node defined before its input node in the file.
	src := `
.model m
.inputs a b
.outputs y
.names t y
0 1
.names a b t
11 1
.end
`
	checkMapped(t, src, DefaultOptions(cell.Default()))
}

// TestMapReversedChain: a 100 000-node BLIF inverter chain written last
// node first took the old deferred-pass loop 100 000 passes; it now maps in
// definition order in one.
func TestMapReversedChain(t *testing.T) {
	const n = 100000
	var b strings.Builder
	fmt.Fprintf(&b, ".model chain\n.inputs g0\n.outputs g%d\n", n)
	for i := n; i >= 1; i-- {
		fmt.Fprintf(&b, ".names g%d g%d\n0 1\n", i-1, i)
	}
	b.WriteString(".end\n")
	nl, err := blif.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Map(nl, DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != n {
		t.Errorf("%d gates, want %d", c.NumGates(), n)
	}
	out, err := sim.EvalOne(c, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != true { // an even number of inversions
		t.Errorf("chain(1) = %v", out[0])
	}
}
