package circuit

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/logic"
)

// buildFig1 constructs the paper's Fig. 1 left circuit: F = (A·B)·(C+D).
func buildFig1(t *testing.T) (*Circuit, map[string]NodeID) {
	t.Helper()
	c := New("fig1")
	ids := map[string]NodeID{}
	for _, n := range []string{"A", "B", "C", "D"} {
		id, err := c.AddPI(n)
		if err != nil {
			t.Fatal(err)
		}
		ids[n] = id
	}
	x, err := c.AddGate("X", logic.And, ids["A"], ids["B"])
	if err != nil {
		t.Fatal(err)
	}
	ids["X"] = x
	y, err := c.AddGate("Y", logic.Or, ids["C"], ids["D"])
	if err != nil {
		t.Fatal(err)
	}
	ids["Y"] = y
	f, err := c.AddGate("F", logic.And, x, y)
	if err != nil {
		t.Fatal(err)
	}
	ids["F"] = f
	if err := c.AddPO("F", f); err != nil {
		t.Fatal(err)
	}
	return c, ids
}

func TestBuildAndValidate(t *testing.T) {
	c, ids := buildFig1(t)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.NumGates() != 3 {
		t.Errorf("NumGates = %d, want 3", c.NumGates())
	}
	if c.NumNodes() != 7 {
		t.Errorf("NumNodes = %d, want 7", c.NumNodes())
	}
	if got := c.MustLookup("X"); got != ids["X"] {
		t.Errorf("Lookup X = %d, want %d", got, ids["X"])
	}
	if _, ok := c.Lookup("nope"); ok {
		t.Error("Lookup of missing name succeeded")
	}
}

func TestAddErrors(t *testing.T) {
	c := New("t")
	a, _ := c.AddPI("a")
	if _, err := c.AddPI("a"); err == nil {
		t.Error("duplicate PI name accepted")
	}
	if _, err := c.AddPI(""); err == nil {
		t.Error("empty PI name accepted")
	}
	if _, err := c.AddGate("g", logic.And, a); err == nil {
		t.Error("AND with one input accepted")
	}
	if _, err := c.AddGate("g", logic.Inv, a, a); err == nil {
		t.Error("INV with two inputs accepted")
	}
	if _, err := c.AddGate("g", logic.Kind(99), a); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := c.AddGate("g", logic.Buf, NodeID(42)); err == nil {
		t.Error("out-of-range fanin accepted")
	}
	g, err := c.AddGate("g", logic.Buf, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("a", logic.Inv, g); err == nil {
		t.Error("gate name colliding with PI accepted")
	}
	if err := c.AddPO("o", NodeID(99)); err == nil {
		t.Error("PO with bad driver accepted")
	}
	if err := c.AddPO("o", g); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPO("o", g); err == nil {
		t.Error("duplicate PO name accepted")
	}
}

func TestFanoutBookkeeping(t *testing.T) {
	c, ids := buildFig1(t)
	if got := c.FanoutCount(ids["X"]); got != 1 {
		t.Errorf("FanoutCount(X) = %d, want 1", got)
	}
	// F drives only the PO.
	if got := c.FanoutCount(ids["F"]); got != 1 {
		t.Errorf("FanoutCount(F) = %d, want 1", got)
	}
	if len(c.Nodes[ids["F"]].Fanout()) != 0 {
		t.Error("F should have no gate fanout")
	}
	if !c.IsPODriver(ids["F"]) || c.IsPODriver(ids["X"]) {
		t.Error("IsPODriver misreported")
	}
	if got := c.POsOf(ids["F"]); len(got) != 1 || got[0] != 0 {
		t.Errorf("POsOf(F) = %v", got)
	}
}

func TestAddRemoveFanin(t *testing.T) {
	c, ids := buildFig1(t)
	// The paper's Fig. 1 fingerprint: feed Y into the AND generating X.
	if err := c.AddFanin(ids["X"], ids["Y"]); err != nil {
		t.Fatalf("AddFanin: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate after AddFanin: %v", err)
	}
	if len(c.Nodes[ids["X"]].Fanin) != 3 {
		t.Error("X should now have 3 inputs")
	}
	if got := c.FanoutCount(ids["Y"]); got != 2 {
		t.Errorf("FanoutCount(Y) = %d, want 2", got)
	}
	// Duplicate pin rejected.
	if err := c.AddFanin(ids["X"], ids["Y"]); err == nil {
		t.Error("duplicate AddFanin accepted")
	}
	// Undo.
	if err := c.RemoveFanin(ids["X"], ids["Y"]); err != nil {
		t.Fatalf("RemoveFanin: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate after RemoveFanin: %v", err)
	}
	if got := c.FanoutCount(ids["Y"]); got != 1 {
		t.Errorf("FanoutCount(Y) after removal = %d, want 1", got)
	}
	// Removing again fails.
	if err := c.RemoveFanin(ids["X"], ids["Y"]); err == nil {
		t.Error("RemoveFanin of absent pin accepted")
	}
	// Cannot shrink a 2-input AND below 2 pins.
	if err := c.RemoveFanin(ids["X"], ids["A"]); err == nil {
		t.Error("RemoveFanin below minimum arity accepted")
	}
	// Cannot grow fixed-fanin gates or PIs.
	inv, _ := c.AddGate("n1", logic.Inv, ids["A"])
	if err := c.AddFanin(inv, ids["B"]); err == nil {
		t.Error("AddFanin on INV accepted")
	}
	if err := c.AddFanin(ids["A"], ids["B"]); err == nil {
		t.Error("AddFanin on PI accepted")
	}
}

func TestConvertGate(t *testing.T) {
	c, ids := buildFig1(t)
	inv, err := c.AddGate("n1", logic.Inv, ids["X"])
	if err != nil {
		t.Fatal(err)
	}
	// INV(X) → NAND(X, Y): the single-input fingerprint conversion.
	if err := c.ConvertGate(inv, logic.Nand, ids["Y"]); err != nil {
		t.Fatalf("ConvertGate: %v", err)
	}
	if c.Nodes[inv].Kind != logic.Nand || len(c.Nodes[inv].Fanin) != 2 {
		t.Error("ConvertGate did not produce NAND2")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate after ConvertGate: %v", err)
	}
	// Duplicate source rejected.
	inv2, _ := c.AddGate("n2", logic.Inv, ids["X"])
	if err := c.ConvertGate(inv2, logic.Nand, ids["X"]); err == nil {
		t.Error("ConvertGate duplicating a pin accepted")
	}
}

func TestSetKind(t *testing.T) {
	c, ids := buildFig1(t)
	if err := c.SetKind(ids["X"], logic.Nand); err != nil {
		t.Fatal(err)
	}
	if c.Nodes[ids["X"]].Kind != logic.Nand {
		t.Error("SetKind did not apply")
	}
	if err := c.SetKind(ids["X"], logic.Inv); err == nil {
		t.Error("SetKind to arity-incompatible kind accepted")
	}
	if err := c.SetKind(ids["A"], logic.And); err == nil {
		t.Error("SetKind on PI accepted")
	}
}

func TestTopoAndLevels(t *testing.T) {
	c, ids := buildFig1(t)
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	for i := range c.Nodes {
		for _, f := range c.Nodes[i].Fanin {
			if pos[f] >= pos[NodeID(i)] {
				t.Fatalf("topo violation: %q before its fanin %q", c.Nodes[i].Name, c.Nodes[f].Name)
			}
		}
	}
	levels := c.Levels()
	if levels[ids["A"]] != 0 || levels[ids["X"]] != 1 || levels[ids["F"]] != 2 {
		t.Errorf("levels = A:%d X:%d F:%d, want 0,1,2", levels[ids["A"]], levels[ids["X"]], levels[ids["F"]])
	}
	st := c.Stats()
	if st.Depth != 2 {
		t.Errorf("Depth = %d, want 2", st.Depth)
	}
}

func TestCycleDetection(t *testing.T) {
	c, ids := buildFig1(t)
	// Create a cycle: X reads F (F already transitively reads X).
	if err := c.AddFanin(ids["X"], ids["F"]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if c.Acyclic() {
		t.Error("Acyclic true on cyclic netlist")
	}
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted cyclic netlist")
	}
}

func TestTFITFO(t *testing.T) {
	c, ids := buildFig1(t)
	tfi := c.TFI(ids["F"])
	for _, n := range []string{"A", "B", "C", "D", "X", "Y"} {
		if !tfi[ids[n]] {
			t.Errorf("TFI(F) missing %s", n)
		}
	}
	if tfi[ids["F"]] {
		t.Error("TFI includes the node itself")
	}
	tfo := c.TFO(ids["A"])
	if !tfo[ids["X"]] || !tfo[ids["F"]] || tfo[ids["Y"]] {
		t.Error("TFO(A) incorrect")
	}
}

func TestFFC(t *testing.T) {
	c, ids := buildFig1(t)
	// FFC of X: just {X} (A, B are PIs).
	ffc := c.FFC(ids["X"])
	if len(ffc) != 1 || ffc[0] != ids["X"] {
		t.Errorf("FFC(X) = %v, want [X]", ffc)
	}
	// Grow a deeper cone: Y2 = INV(Y), F2 = AND(X, Y2); Y and Y2 fan out
	// only toward F2 once F is re-pointed... build fresh instead.
	c2 := New("cone")
	a, _ := c2.AddPI("a")
	b, _ := c2.AddPI("b")
	d, _ := c2.AddPI("d")
	g1, _ := c2.AddGate("g1", logic.And, a, b)
	g2, _ := c2.AddGate("g2", logic.Inv, g1)
	g3, _ := c2.AddGate("g3", logic.Or, g2, d)
	top, _ := c2.AddGate("top", logic.And, g3, a)
	if err := c2.AddPO("o", top); err != nil {
		t.Fatal(err)
	}
	ffc = c2.FFC(g3)
	want := map[NodeID]bool{g3: true, g2: true, g1: true}
	if len(ffc) != len(want) {
		t.Fatalf("FFC(g3) = %v, want g1,g2,g3", ffc)
	}
	for _, n := range ffc {
		if !want[n] {
			t.Errorf("FFC(g3) contains unexpected node %q", c2.Nodes[n].Name)
		}
	}
	// Every non-root cone member must fan out only inside the cone.
	inCone := map[NodeID]bool{}
	for _, n := range ffc {
		inCone[n] = true
	}
	for _, n := range ffc {
		if n == g3 {
			continue
		}
		for _, s := range c2.Nodes[n].Fanout() {
			if !inCone[s] {
				t.Errorf("cone member %q escapes to %q", c2.Nodes[n].Name, c2.Nodes[s].Name)
			}
		}
	}
	// If g1 also fed another gate outside, it must drop from the cone.
	c3 := New("cone2")
	a, _ = c3.AddPI("a")
	b, _ = c3.AddPI("b")
	d, _ = c3.AddPI("d")
	g1, _ = c3.AddGate("g1", logic.And, a, b)
	g2, _ = c3.AddGate("g2", logic.Inv, g1)
	g3, _ = c3.AddGate("g3", logic.Or, g2, d)
	side, _ := c3.AddGate("side", logic.Or, g1, d)
	top, _ = c3.AddGate("top", logic.And, g3, side)
	if err := c3.AddPO("o", top); err != nil {
		t.Fatal(err)
	}
	ffc = c3.FFC(g3)
	for _, n := range ffc {
		if n == g1 {
			t.Error("g1 escapes the cone via side, must not be in FFC(g3)")
		}
	}
	if !c3.InFFC(g3, g2) {
		t.Error("g2 should be in FFC(g3)")
	}
	// FFC of a PI is empty.
	if got := c3.FFC(a); got != nil {
		t.Errorf("FFC(PI) = %v, want nil", got)
	}
	// A PO driver in the middle cannot join another cone.
	c4 := New("cone3")
	a, _ = c4.AddPI("a")
	b, _ = c4.AddPI("b")
	g1, _ = c4.AddGate("g1", logic.And, a, b)
	g2, _ = c4.AddGate("g2", logic.Inv, g1)
	if err := c4.AddPO("mid", g1); err != nil {
		t.Fatal(err)
	}
	if err := c4.AddPO("o", g2); err != nil {
		t.Fatal(err)
	}
	if c4.InFFC(g2, g1) {
		t.Error("PO driver g1 must not join FFC(g2)")
	}
}

func TestCloneIndependence(t *testing.T) {
	c, ids := buildFig1(t)
	cl := c.Clone()
	if err := cl.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if err := cl.AddFanin(ids["X"], ids["Y"]); err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes[ids["X"]].Fanin) != 2 {
		t.Error("mutating clone changed original fanin")
	}
	if got := c.FanoutCount(ids["Y"]); got != 1 {
		t.Error("mutating clone changed original fanout")
	}
	if _, err := cl.AddPI("E"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup("E"); ok {
		t.Error("clone name index shared with original")
	}
}

func TestSweep(t *testing.T) {
	c, ids := buildFig1(t)
	// Dead logic: a gate chain reaching no PO.
	d1, _ := c.AddGate("dead1", logic.Inv, ids["A"])
	if _, err := c.AddGate("dead2", logic.And, d1, ids["B"]); err != nil {
		t.Fatal(err)
	}
	swept, removed := c.Sweep()
	if removed != 2 {
		t.Errorf("Sweep removed %d, want 2", removed)
	}
	if err := swept.Validate(); err != nil {
		t.Fatalf("swept invalid: %v", err)
	}
	if swept.NumGates() != 3 {
		t.Errorf("swept gates = %d, want 3", swept.NumGates())
	}
	if len(swept.PIs) != 4 {
		t.Errorf("swept PIs = %d, want 4 (PIs always kept)", len(swept.PIs))
	}
	if _, ok := swept.Lookup("dead1"); ok {
		t.Error("dead gate survived sweep")
	}
}

// TestAddPOsMatchesAddPO: AddPOs leaves the outputs and version that one
// AddPO per output would, and on a duplicate name (new or existing) or an
// out-of-range driver it refuses and adds nothing.
func TestAddPOsMatchesAddPO(t *testing.T) {
	one, ids := buildFig1(t)
	bulk, _ := buildFig1(t)
	pos := []PO{{"G", ids["A"]}, {"H", ids["F"]}, {"I", ids["A"]}}
	for _, po := range pos {
		if err := one.AddPO(po.Name, po.Driver); err != nil {
			t.Fatal(err)
		}
	}
	if err := bulk.AddPOs(pos); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(one.POs, bulk.POs) || one.Version() != bulk.Version() {
		t.Fatalf("AddPOs: POs %v version %d, AddPO: POs %v version %d",
			bulk.POs, bulk.Version(), one.POs, one.Version())
	}
	for _, bad := range [][]PO{
		{{"J", ids["A"]}, {"J", ids["B"]}},     // duplicate among the new outputs
		{{"K", ids["A"]}, {"F", ids["B"]}},     // duplicate of an existing output
		{{"L", ids["A"]}, {"M", NodeID(1000)}}, // driver out of range
	} {
		v, n := bulk.Version(), len(bulk.POs)
		if err := bulk.AddPOs(bad); err == nil {
			t.Errorf("AddPOs(%v) accepted", bad)
		}
		if bulk.Version() != v || len(bulk.POs) != n {
			t.Errorf("refused AddPOs(%v) changed the circuit", bad)
		}
	}
}

// TestSweepManyOutputs: sweeping is linear in the outputs. 100 000 outputs
// take milliseconds; re-adding each through a scan of the earlier ones took
// about 25 s.
func TestSweepManyOutputs(t *testing.T) {
	const n = 100_000
	c := New("wide")
	a, err := c.AddPI("a")
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.AddGate("g", logic.Inv, a)
	if err != nil {
		t.Fatal(err)
	}
	c.POs = make([]PO, n)
	for i := range c.POs {
		c.POs[i] = PO{Name: "o" + strconv.Itoa(i), Driver: g}
	}
	done := make(chan *Circuit, 1)
	go func() {
		swept, _ := c.Sweep()
		done <- swept
	}()
	select {
	case swept := <-done:
		if !slices.Equal(swept.POs, c.POs) || swept.Version() != uint64(2+n) {
			t.Errorf("swept circuit has %d POs at version %d, want the %d originals at version %d",
				len(swept.POs), swept.Version(), n, 2+n)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Sweep of %d outputs still running after 5s", n)
	}
}

func TestStats(t *testing.T) {
	c, ids := buildFig1(t)
	_ = ids
	st := c.Stats()
	if st.PIs != 4 || st.POs != 1 || st.Gates != 3 {
		t.Errorf("Stats = %+v", st)
	}
	if st.ByKind[logic.And] != 2 || st.ByKind[logic.Or] != 1 {
		t.Errorf("ByKind = %v", st.ByKind)
	}
	if st.MaxFanin != 2 {
		t.Errorf("MaxFanin = %d", st.MaxFanin)
	}
}

func TestFreshName(t *testing.T) {
	c, _ := buildFig1(t)
	if got := c.FreshName("Z"); got != "Z" {
		t.Errorf("FreshName(Z) = %q", got)
	}
	if got := c.FreshName("X"); got == "X" {
		t.Error("FreshName returned an existing name")
	}
	n1 := c.FreshName("X")
	if _, err := c.AddGate(n1, logic.Inv, c.MustLookup("X")); err != nil {
		t.Fatal(err)
	}
	n2 := c.FreshName("X")
	if n2 == n1 || n2 == "X" {
		t.Errorf("FreshName repeated %q", n2)
	}
}

func TestString(t *testing.T) {
	c, _ := buildFig1(t)
	s := c.String()
	for _, frag := range []string{"circuit fig1", "PI", "AND", "OR", "PO F"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q:\n%s", frag, s)
		}
	}
}

func TestReachable(t *testing.T) {
	c, ids := buildFig1(t)
	d1, _ := c.AddGate("dead1", logic.Inv, ids["A"])
	r := c.Reachable()
	if !r[ids["F"]] || !r[ids["X"]] || !r[ids["A"]] {
		t.Error("Reachable missing live nodes")
	}
	if r[d1] {
		t.Error("Reachable includes dead node")
	}
}

func TestMustLookupPanics(t *testing.T) {
	c, _ := buildFig1(t)
	defer func() {
		if recover() == nil {
			t.Error("MustLookup on missing name did not panic")
		}
	}()
	c.MustLookup("missing")
}

// TestTopoMemoized checks the TopoOrder cache: identical slice on repeated
// calls, invalidation on every mutator, and independence between clones.
func TestTopoMemoized(t *testing.T) {
	c, ids := buildFig1(t)
	o1, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	o2, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if &o1[0] != &o2[0] {
		t.Error("TopoOrder on unchanged circuit did not return the cached slice")
	}
	v0 := c.Version()

	// Every mutator must bump Version (and thus invalidate the cache).
	inv, err := c.AddGate("inv", logic.Inv, ids["F"])
	if err != nil {
		t.Fatal(err)
	}
	if c.Version() == v0 {
		t.Error("AddGate did not bump Version")
	}
	o3, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(o3) != len(o1)+1 {
		t.Errorf("recomputed order has %d nodes, want %d", len(o3), len(o1)+1)
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"AddPO", func() error { return c.AddPO("G", inv) }},
		{"AddFanin", func() error { return c.AddFanin(ids["X"], ids["C"]) }},
		{"RemoveFanin", func() error { return c.RemoveFanin(ids["X"], ids["C"]) }},
		{"SetKind", func() error { return c.SetKind(ids["X"], logic.Nand) }},
		{"ConvertGate", func() error { return c.ConvertGate(inv, logic.Nand, ids["A"]) }},
		{"UnconvertGate", func() error { return c.UnconvertGate(inv, logic.Inv, ids["A"]) }},
		{"ReplaceFanin", func() error { return c.ReplaceFanin(inv, 0, ids["X"]) }},
		{"RewireGate", func() error { return c.RewireGate(inv, logic.Inv, []NodeID{ids["F"]}) }},
	}
	for _, s := range steps {
		before := c.Version()
		if err := s.fn(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if c.Version() == before {
			t.Errorf("%s did not bump Version", s.name)
		}
		if _, err := c.TopoOrder(); err != nil {
			t.Fatalf("TopoOrder after %s: %v", s.name, err)
		}
	}

	// A clone shares the cache snapshot but diverges independently.
	cl := c.Clone()
	co, err := cl.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddGate("cl_only", logic.Inv, ids["F"]); err != nil {
		t.Fatal(err)
	}
	co2, err := cl.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(co2) != len(co)+1 {
		t.Error("clone topo did not refresh after clone-only mutation")
	}
	oc, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(oc) != len(co) {
		t.Error("original topo length changed by clone mutation")
	}
}
