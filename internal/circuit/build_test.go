package circuit_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
)

// passOrder is the deferred-pass loop every reader ran before Defs.Order,
// kept as its oracle: sweep the gates in file order, add each whose inputs
// all exist, and retry the rest in the next pass — O(gates × passes).
func passOrder(d *circuit.Defs) ([]int32, error) {
	defined := map[string]bool{}
	for _, s := range d.Inputs {
		defined[s] = true
	}
	remaining := make([]int32, len(d.Gates))
	for g := range remaining {
		remaining[g] = int32(g)
	}
	var order []int32
	for len(remaining) > 0 {
		var deferred []int32
		for _, g := range remaining {
			lo := int32(0)
			if g > 0 {
				lo = d.Ends[g-1]
			}
			ready := true
			for _, a := range d.Args[lo:d.Ends[g]] {
				ready = ready && defined[a]
			}
			if !ready {
				deferred = append(deferred, g)
				continue
			}
			defined[d.Gates[g]] = true
			order = append(order, g)
		}
		if len(deferred) == len(remaining) {
			return nil, fmt.Errorf("gate %q reads undefined or cyclic signals", d.Gates[deferred[0]])
		}
		remaining = deferred
	}
	return order, nil
}

// defsOf stages c as a reader would, with its gates in the file order perm
// gives (perm[i] is the node ID defined i-th among the gates).
func defsOf(c *circuit.Circuit, perm []circuit.NodeID) *circuit.Defs {
	d := &circuit.Defs{}
	for _, pi := range c.PIs {
		d.Inputs = append(d.Inputs, c.Nodes[pi].Name)
	}
	for _, id := range perm {
		nd := &c.Nodes[id]
		d.Gates = append(d.Gates, nd.Name)
		d.Kinds = append(d.Kinds, nd.Kind)
		for _, f := range nd.Fanin {
			d.Args = append(d.Args, c.Nodes[f].Name)
		}
		d.Ends = append(d.Ends, int32(len(d.Args)))
	}
	for _, po := range c.POs {
		d.Outputs = append(d.Outputs, po.Name)
		d.Drivers = append(d.Drivers, c.Nodes[po.Driver].Name)
	}
	return d
}

// addOneByOne builds d through AddPI, AddGate and AddPO in the oracle's
// order, as the readers did before Build.
func addOneByOne(t *testing.T, name string, d *circuit.Defs, order []int32) *circuit.Circuit {
	t.Helper()
	c := circuit.New(name)
	for _, s := range d.Inputs {
		if _, err := c.AddPI(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range order {
		lo := int32(0)
		if g > 0 {
			lo = d.Ends[g-1]
		}
		var fanin []circuit.NodeID
		for _, a := range d.Args[lo:d.Ends[g]] {
			fanin = append(fanin, c.MustLookup(a))
		}
		if _, err := c.AddGate(d.Gates[g], d.Kinds[g], fanin...); err != nil {
			t.Fatal(err)
		}
	}
	for i, po := range d.Outputs {
		if err := c.AddPO(po, c.MustLookup(d.Drivers[i])); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestOrderMatchesPassLoop: on every suite circuit, in its own gate order
// and shuffled, Defs.Order reproduces the pass loop's order, and Build the
// circuit AddGate builds in that order — node IDs, fanin and fanout order,
// POs and version.
func TestOrderMatchesPassLoop(t *testing.T) {
	for _, spec := range bench.Suite() {
		c := spec.Build()
		var gates []circuit.NodeID
		for i := range c.Nodes {
			if !c.Nodes[i].IsPI {
				gates = append(gates, circuit.NodeID(i))
			}
		}
		for seed := int64(0); seed < 3; seed++ {
			perm := slices.Clone(gates)
			if seed > 0 {
				rand.New(rand.NewSource(seed)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			}
			d := defsOf(c, perm)
			want, err := passOrder(d)
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec.Name, seed, err)
			}
			got, err := d.Order()
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec.Name, seed, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: Order differs from the pass loop", spec.Name, seed)
			}
			built, err := circuit.Build(spec.Name, d)
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec.Name, seed, err)
			}
			if err := built.ValidateUncached(); err != nil {
				t.Fatalf("%s seed %d: Build's result is invalid: %v", spec.Name, seed, err)
			}
			sameCircuit(t, built, addOneByOne(t, spec.Name, d, want))
		}
	}
}

func sameCircuit(t *testing.T, got, want *circuit.Circuit) {
	t.Helper()
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("String() differs:\n%s\nwant:\n%s", g, w)
	}
	for i := range want.Nodes {
		g, w := &got.Nodes[i], &want.Nodes[i]
		if !slices.Equal(g.Fanin, w.Fanin) || !slices.Equal(g.Fanout(), w.Fanout()) {
			t.Fatalf("node %q: fanin %v fanout %v, want %v %v", w.Name, g.Fanin, g.Fanout(), w.Fanin, w.Fanout())
		}
	}
	if !slices.Equal(got.PIs, want.PIs) || !slices.Equal(got.POs, want.POs) || got.Version() != want.Version() {
		t.Fatalf("PIs %v POs %v version %d, want %v %v %d",
			got.PIs, got.POs, got.Version(), want.PIs, want.POs, want.Version())
	}
}

// TestOrderRejects: duplicate and empty names, undefined signals and
// cycles are errors.
func TestOrderRejects(t *testing.T) {
	cases := map[string]*circuit.Defs{
		"duplicate gate":  {Inputs: []string{"a"}, Gates: []string{"x", "x"}, Args: []string{"a", "a"}, Ends: []int32{1, 2}},
		"gate over input": {Inputs: []string{"a"}, Gates: []string{"a"}, Args: []string{"a"}, Ends: []int32{1}},
		"empty name":      {Inputs: []string{"a"}, Gates: []string{""}, Args: []string{"a"}, Ends: []int32{1}},
		"undefined":       {Inputs: []string{"a"}, Gates: []string{"x"}, Args: []string{"zz"}, Ends: []int32{1}},
		"self loop":       {Inputs: []string{"a"}, Gates: []string{"x"}, Args: []string{"x"}, Ends: []int32{1}},
		"cycle":           {Inputs: []string{"a"}, Gates: []string{"q", "x", "y"}, Args: []string{"x", "y", "x"}, Ends: []int32{1, 2, 3}},
		"ends mismatch":   {Inputs: []string{"a"}, Gates: []string{"x"}, Args: []string{"a"}},
	}
	for name, d := range cases {
		if _, err := d.Order(); err == nil {
			t.Errorf("%s: Order accepted", name)
		}
	}
}

// TestBuildChecks: Build makes AddGate's checks — kind, arity — and
// AddPO's, and Validate's; Check makes the same, with the same errors.
func TestBuildChecks(t *testing.T) {
	ok := func() *circuit.Defs {
		return &circuit.Defs{
			Inputs: []string{"a", "b"}, Gates: []string{"q"}, Kinds: []logic.Kind{logic.And},
			Args: []string{"a", "b"}, Ends: []int32{2}, Lines: []int32{7},
			Outputs: []string{"q"}, Drivers: []string{"q"},
		}
	}
	if _, err := circuit.Build("ok", ok()); err != nil {
		t.Fatal(err)
	}
	if _, err := ok().Check("ok"); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(d *circuit.Defs){
		"invalid kind":  func(d *circuit.Defs) { d.Kinds[0] = logic.Kind(logic.NumKinds) },
		"arity":         func(d *circuit.Defs) { d.Kinds[0] = logic.Inv },
		"no driver":     func(d *circuit.Defs) { d.Drivers[0] = "zz" },
		"duplicate PO":  func(d *circuit.Defs) { d.Outputs, d.Drivers = []string{"q", "q"}, []string{"q", "a"} },
		"duplicate pin": func(d *circuit.Defs) { d.Args[1] = "a" },
		"no outputs":    func(d *circuit.Defs) { d.Outputs, d.Drivers = nil, nil },
		"kinds short":   func(d *circuit.Defs) { d.Kinds = nil },
		"no inputs":     func(d *circuit.Defs) { d.Inputs, d.Args, d.Kinds[0] = nil, nil, logic.Const1; d.Ends[0] = 0 },
		"empty PO name": func(d *circuit.Defs) { d.Outputs[0] = "" },
		"cycle":         func(d *circuit.Defs) { d.Args[1] = "q" },
		"undefined":     func(d *circuit.Defs) { d.Args[1] = "zz" },
	}
	for name, edit := range cases {
		d := ok()
		edit(d)
		_, err := circuit.Build(name, d)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, cerr := d.Check(name); fmt.Sprint(cerr) != fmt.Sprint(err) {
			t.Errorf("%s: Check error %v, Build error %v", name, cerr, err)
		}
	}
	d := ok()
	d.Kinds[0] = logic.Inv
	if _, err := circuit.Build("lines", d); err == nil || !strings.Contains(err.Error(), "line 7") {
		t.Errorf("arity error %v does not quote the gate's line", err)
	}
}

// TestOrderReversedChainLinear: a 100 000-gate NOT chain defined last gate
// first needs 100 000 passes of the old loop; Order takes one walk, and
// numbers the chain from its head.
func TestOrderReversedChainLinear(t *testing.T) {
	const n = 100000
	d := &circuit.Defs{Inputs: []string{"g0"}}
	for i := n; i >= 1; i-- {
		d.Gates = append(d.Gates, fmt.Sprintf("g%d", i))
		d.Kinds = append(d.Kinds, logic.Inv)
		d.Args = append(d.Args, fmt.Sprintf("g%d", i-1))
		d.Ends = append(d.Ends, int32(len(d.Args)))
	}
	d.Outputs, d.Drivers = []string{"q"}, []string{fmt.Sprintf("g%d", n)}
	start := time.Now()
	c, err := circuit.Build("chain", d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Nodes {
		if want := fmt.Sprintf("g%d", i); c.Nodes[i].Name != want {
			t.Fatalf("node %d is %q, want %q", i, c.Nodes[i].Name, want)
		}
	}
	t.Logf("%d-gate reversed chain built in %v", n, time.Since(start))
}
