package circuit

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/logic"
)

// sweepOracle is Sweep as it was before the bulk build, kept as its oracle:
// the kept nodes re-added one AddPI or AddGate call at a time in the
// receiver's topological order, then the outputs by AddPOs.
func sweepOracle(c *Circuit) (*Circuit, int) {
	keep := c.Reachable()
	for _, pi := range c.PIs {
		keep[pi] = true
	}
	out := New(c.Name)
	remap := make([]NodeID, len(c.Nodes))
	for i := range remap {
		remap[i] = None
	}
	removed := 0
	for _, id := range c.MustTopoOrder() {
		if !keep[id] {
			if !c.Nodes[id].IsPI {
				removed++
			}
			continue
		}
		nd := &c.Nodes[id]
		if nd.IsPI {
			nid, err := out.AddPI(nd.Name)
			if err != nil {
				panic(err)
			}
			remap[id] = nid
			continue
		}
		fanin := make([]NodeID, len(nd.Fanin))
		for j, f := range nd.Fanin {
			fanin[j] = remap[f]
		}
		nid, err := out.AddGate(nd.Name, nd.Kind, fanin...)
		if err != nil {
			panic(err)
		}
		remap[id] = nid
	}
	pos := make([]PO, len(c.POs))
	for i, po := range c.POs {
		pos[i] = PO{Name: po.Name, Driver: remap[po.Driver]}
	}
	if err := out.AddPOs(pos); err != nil {
		panic(err)
	}
	return out, removed
}

// sameSweep reports the first difference between c.Sweep() and
// sweepOracle(c): node count, names, kinds, fanins, fanout order, PIs,
// POs, version, the name index, or the removed count. It also reports a
// memo of c.Sweep() that the full check disagrees with: its topological
// order must be Kahn's, and its Validate memo set if c's is, and only on a
// valid circuit.
func sameSweep(c *Circuit) error {
	valid := c.validValid && c.validVersion == c.version
	got, gotRemoved := c.Sweep()
	want, wantRemoved := sweepOracle(c)
	if gotRemoved != wantRemoved {
		return fmt.Errorf("removed %d, want %d", gotRemoved, wantRemoved)
	}
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		g, w := &got.Nodes[i], &want.Nodes[i]
		if g.Name != w.Name || g.IsPI != w.IsPI || g.Kind != w.Kind {
			return fmt.Errorf("node %d: %q PI %v kind %v, want %q PI %v kind %v", i, g.Name, g.IsPI, g.Kind, w.Name, w.IsPI, w.Kind)
		}
		if !slices.Equal(g.Fanin, w.Fanin) || !slices.Equal(g.fanout, w.fanout) {
			return fmt.Errorf("node %q: fanin %v fanout %v, want %v %v", w.Name, g.Fanin, g.fanout, w.Fanin, w.fanout)
		}
	}
	if !slices.Equal(got.PIs, want.PIs) || !slices.Equal(got.POs, want.POs) || got.Version() != want.Version() {
		return fmt.Errorf("PIs %v POs %v version %d, want %v %v %d", got.PIs, got.POs, got.Version(), want.PIs, want.POs, want.Version())
	}
	if len(got.byName) != len(want.byName) {
		return fmt.Errorf("%d indexed names, want %d", len(got.byName), len(want.byName))
	}
	for i := range c.Nodes {
		name := c.Nodes[i].Name
		g, gok := got.Lookup(name)
		w, wok := want.Lookup(name)
		if g != w || gok != wok {
			return fmt.Errorf("Lookup(%q) = %d %v, want %d %v", name, g, gok, w, wok)
		}
	}
	order, err := got.topoOrderUncached()
	if err != nil || !got.topoValid || got.topoVersion != got.version || !slices.Equal(got.topo, order) {
		return fmt.Errorf("memoized order %v, Kahn's sort gives %v (%v)", got.topo, order, err)
	}
	if got.validValid != valid {
		return fmt.Errorf("Validate memo %v, receiver's %v", got.validValid, valid)
	}
	if valid {
		if err := got.validateUncached(); err != nil {
			return fmt.Errorf("Validate memo set on an invalid circuit: %v", err)
		}
	}
	return nil
}

// TestSweepMatchesOracleRandom: on random circuits with dead logic, Sweep
// builds exactly the oracle's circuit.
func TestSweepMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		c := randCircuit(rng)
		if err := sameSweep(c); err != nil {
			t.Fatalf("circuit %d: %v\n%s", i, err, c)
		}
	}
}

// pinsOf snapshots every node's fanin and fanout lists.
func pinsOf(c *Circuit) (fanin, fanout [][]NodeID) {
	for i := range c.Nodes {
		fanin = append(fanin, slices.Clone(c.Nodes[i].Fanin))
		fanout = append(fanout, slices.Clone(c.Nodes[i].fanout))
	}
	return fanin, fanout
}

// TestSlabEditsStayLocal: Clone and Sweep give every node a fanin and a
// fanout slice cut from shared slabs. A gate added on one node's driver
// (growing the driver's fanout) and a fanin added to one node must leave
// every other node's pins, and the circuit copied from, unchanged: each
// slice is capped at its length, so growing it reallocates.
func TestSlabEditsStayLocal(t *testing.T) {
	c, ids := buildFig1(t)
	if _, err := c.AddGate("dead", logic.Inv, ids["A"]); err != nil {
		t.Fatal(err)
	}
	swept, _ := c.Sweep()
	for name, cp := range map[string]*Circuit{"Clone": c.Clone(), "Sweep": swept, "Clone of Sweep": swept.Clone()} {
		srcText := c.String()
		srcIn, srcOut := pinsOf(c)
		wantIn, wantOut := pinsOf(cp)
		a, d, x := cp.MustLookup("A"), cp.MustLookup("D"), cp.MustLookup("X")
		// A gains a sink and X a pin reading D. In the slabs, A's fanout
		// is followed by B's, D's by X's, and X's fanin by Y's = (C, D).
		g, err := cp.AddGate("G", logic.Buf, a)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.AddFanin(x, d); err != nil {
			t.Fatal(err)
		}
		wantIn[x] = append(wantIn[x], d)
		wantOut[a] = append(wantOut[a], g)
		wantOut[d] = append(wantOut[d], x)
		wantIn, wantOut = append(wantIn, []NodeID{a}), append(wantOut, nil)
		gotIn, gotOut := pinsOf(cp)
		for i := range wantIn {
			if !slices.Equal(gotIn[i], wantIn[i]) || !slices.Equal(gotOut[i], wantOut[i]) {
				t.Errorf("%s: node %q: fanin %v fanout %v, want %v %v", name, cp.Nodes[i].Name, gotIn[i], gotOut[i], wantIn[i], wantOut[i])
			}
		}
		if err := cp.Validate(); err != nil {
			t.Errorf("%s: edited copy invalid: %v", name, err)
		}
		in, out := pinsOf(c)
		if c.String() != srcText || !slices.EqualFunc(in, srcIn, slices.Equal) || !slices.EqualFunc(out, srcOut, slices.Equal) {
			t.Errorf("%s: editing the copy changed the original", name)
		}
	}
}
