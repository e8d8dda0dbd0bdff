package cec

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// unionTopoOracle is unionTopo as it was before the CSR successor array,
// kept as its oracle: per-node successor slices grown by append and a queue
// resliced from its head.
func unionTopoOracle(c *circuit.Circuit, slots []Slot) ([]circuit.NodeID, error) {
	n := len(c.Nodes)
	indeg := make([]int, n)
	adj := make([][]circuit.NodeID, n)
	for i := range c.Nodes {
		for _, f := range c.Nodes[i].Fanin {
			adj[f] = append(adj[f], circuit.NodeID(i))
			indeg[i]++
		}
	}
	for _, sl := range slots {
		for _, m := range sl.Options {
			for _, l := range m.Lits {
				adj[l.Node] = append(adj[l.Node], sl.Gate)
				indeg[sl.Gate]++
			}
		}
	}
	order := make([]circuit.NodeID, 0, n)
	queue := make([]circuit.NodeID, 0, n)
	for _, pi := range c.PIs {
		if indeg[pi] == 0 {
			queue = append(queue, pi)
		}
	}
	for i := range c.Nodes {
		if !c.Nodes[i].IsPI && indeg[i] == 0 {
			queue = append(queue, circuit.NodeID(i))
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range adj[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cec: modification literals create a combinational cycle (%d of %d nodes ordered); fall back to one-shot Check", len(order), n)
	}
	return order, nil
}

// composeOracle is Certifier.compose as it was before the CSR layout, kept
// as its oracle: a literal-reader map, a members map per pass, and a fresh
// node slice per window sorted by union position.
func composeOracle(ct *Certifier, order []circuit.NodeID, init [][]circuit.NodeID) error {
	c, e := ct.master, ct.enc
	n := len(c.Nodes)
	pos := make([]int32, n)
	for i, id := range order {
		pos[id] = int32(i)
	}
	poDriver := make([]bool, n)
	for _, po := range c.POs {
		poDriver[po.Driver] = true
	}
	// litReaders[x]: slot gates reading x as a literal of some option.
	litReaders := make(map[circuit.NodeID][]circuit.NodeID)
	for _, sl := range e.slots {
		for _, m := range sl.Options {
			for _, l := range m.Lits {
				litReaders[l.Node] = append(litReaders[l.Node], sl.Gate)
			}
		}
	}
	covered := make([]bool, len(e.slots))
	for _, w := range init {
		for _, id := range w {
			if int(id) < 0 || int(id) >= n {
				return fmt.Errorf("cec: window node %d out of range", id)
			}
			if si := e.slotOf[id]; si >= 0 {
				covered[si] = true
			}
		}
	}
	for si, ok := range covered {
		if !ok {
			return fmt.Errorf("cec: slot %d (gate %q) lies in no window", si, c.Nodes[e.slots[si].Gate].Name)
		}
	}

	parent := make([]int32, len(init))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	merges := 0
	union := func(a, b int32) {
		if a, b = find(a), find(b); a != b {
			parent[max(a, b)] = min(a, b)
			merges++
		}
	}

	// Per-pass scratch: stamp marks the nodes of the window being examined,
	// mdStamp its maybe-different nodes, interior the window owning each
	// interior node (-1 for none).
	stamp := make([]int32, n)
	mdStamp := make([]int32, n)
	interior := make([]int32, n)
	var windows []certWindow
	var roots []int32
	for {
		before := merges
		// Gather each root's nodes, deduplicated, in union topological order.
		members := make(map[int32][]int, len(init))
		roots = roots[:0]
		for i := range init {
			r := find(int32(i))
			if _, ok := members[r]; !ok {
				roots = append(roots, r)
			}
			members[r] = append(members[r], i)
		}
		for i := range stamp {
			stamp[i], mdStamp[i], interior[i] = -1, -1, -1
		}
		windows = windows[:0]
		for wi, r := range roots {
			var nodes []circuit.NodeID
			for _, m := range members[r] {
				for _, id := range init[m] {
					if stamp[id] != int32(wi) {
						stamp[id] = int32(wi)
						nodes = append(nodes, id)
					}
				}
			}
			sort.Slice(nodes, func(i, j int) bool { return pos[nodes[i]] < pos[nodes[j]] })
			w := certWindow{nodes: nodes}
			// Maybe-different nodes: window nodes reachable from a slot gate
			// along window edges. Walking the topological order once visits
			// every fanin before its reader.
			for _, id := range nodes {
				md := e.slotOf[id] >= 0
				for _, f := range c.Nodes[id].Fanin {
					if mdStamp[f] == int32(wi) {
						md = true
						break
					}
				}
				if !md {
					continue
				}
				mdStamp[id] = int32(wi)
				w.diff = append(w.diff, id)
			}
			for _, id := range w.diff {
				out := poDriver[id]
				for _, f := range c.Nodes[id].Fanout() {
					out = out || stamp[f] != int32(wi)
				}
				for _, g := range litReaders[id] {
					out = out || stamp[g] != int32(wi)
				}
				if out {
					w.outputs = append(w.outputs, id)
					continue
				}
				if o := interior[id]; o >= 0 {
					union(o, r)
				}
				interior[id] = r
			}
			windows = append(windows, w)
		}
		// Reading rule: no window may contain, read as a fanin, or read as a
		// literal another window's interior node.
		for wi, r := range roots {
			w := &windows[wi]
			for _, id := range w.nodes {
				stamp[id] = int32(wi)
			}
			touch := func(x circuit.NodeID) {
				if o := interior[x]; o >= 0 {
					union(o, r)
				}
			}
			for _, id := range w.nodes {
				touch(id)
				for _, f := range c.Nodes[id].Fanin {
					if stamp[f] != int32(wi) {
						touch(f)
					}
				}
				if si := e.slotOf[id]; si >= 0 {
					for _, m := range e.slots[si].Options {
						for _, l := range m.Lits {
							if stamp[l.Node] != int32(wi) {
								touch(l.Node)
							}
						}
					}
				}
			}
		}
		if merges == before {
			break
		}
	}
	ct.windows = windows
	ct.stats.Windows = len(windows)
	ct.stats.Merged = merges
	return nil
}

// sameComposition reports the first difference between the certifier
// NewCertifier composes and the oracles' composition of the same windows:
// the union order, the window order, each window's nodes, maybe-different
// nodes and outputs, and the merge count. Refusals must agree too.
func sameComposition(master *circuit.Circuit, slots []Slot, windows [][]circuit.NodeID) error {
	got, gotErr := NewCertifier(master, slots, windows, DefaultOptions())
	want := &Certifier{master: master, enc: newRegionEncoder(master, slots)}
	wantErr := validateSlots(master, slots)
	if wantErr == nil {
		var order []circuit.NodeID
		if order, wantErr = unionTopoOracle(master, slots); wantErr == nil {
			gotOrder, _, err := unionTopo(master, slots)
			if err != nil || !slices.Equal(gotOrder, order) {
				return fmt.Errorf("union order %v (%v), want %v", gotOrder, err, order)
			}
			wantErr = composeOracle(want, order, windows)
		}
	}
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("NewCertifier error %v, oracle error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if got.stats.Merged != want.stats.Merged || len(got.windows) != len(want.windows) {
		return fmt.Errorf("%d windows after %d merges, want %d after %d", len(got.windows), got.stats.Merged, len(want.windows), want.stats.Merged)
	}
	for i := range want.windows {
		g, w := &got.windows[i], &want.windows[i]
		if !slices.Equal(g.nodes, w.nodes) || !slices.Equal(g.diff, w.diff) || !slices.Equal(g.outputs, w.outputs) {
			return fmt.Errorf("window %d: nodes %v diff %v outputs %v, want %v %v %v", i, g.nodes, g.diff, g.outputs, w.nodes, w.diff, w.outputs)
		}
	}
	return nil
}

// TestComposeMatchesOracle: on the hand-built cases of window_test.go —
// a sound and a broken fixture, a window without its primary, a merge on
// an interior node, a window reading another's output, an uncovered slot,
// a union cycle, and the twins — compose gives the oracle's windows.
func TestComposeMatchesOracle(t *testing.T) {
	c, slots := sessionFixture(t)
	sound := slices.Clone(slots)
	sound[0].Options = sound[0].Options[:1]
	x, f := c.MustLookup("X"), c.MustLookup("F")
	cyclic := slices.Clone(slots)
	cyclic[0].Options = []Mod{{Kind: logic.And, Lits: []Lit{{Node: f}}}}
	cases := []struct {
		name    string
		slots   []Slot
		windows [][]circuit.NodeID
	}{
		{"sound", sound, [][]circuit.NodeID{fixtureWindow(c)}},
		{"broken", slots, [][]circuit.NodeID{fixtureWindow(c)}},
		{"no primary", sound, [][]circuit.NodeID{{x}}},
		{"interior", sound, [][]circuit.NodeID{{x}, fixtureWindow(c)}},
		{"interior reversed", sound, [][]circuit.NodeID{fixtureWindow(c), {x}}},
		{"duplicates", sound, [][]circuit.NodeID{{x, f, x}, {f}, {x}}},
		{"uncovered", sound, [][]circuit.NodeID{{f}}},
		{"cycle", cyclic, [][]circuit.NodeID{fixtureWindow(c)}},
		{"out of range", sound, [][]circuit.NodeID{fixtureWindow(c), {circuit.NodeID(len(c.Nodes))}}},
	}
	for _, tc := range cases {
		if err := sameComposition(c, tc.slots, tc.windows); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	g, err := c.AddGate("G", logic.Or, f, c.MustLookup("C"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddPO("G", g); err != nil {
		t.Fatal(err)
	}
	if err := sameComposition(c, sound, [][]circuit.NodeID{fixtureWindow(c), {g}}); err != nil {
		t.Errorf("reads outputs: %v", err)
	}
	for _, flip := range [][]bool{{false, false}, {false, true}, {true, true}, {false, false, false}} {
		c, slots, windows := twinFixture(t, flip...)
		if err := sameComposition(c, slots, windows); err != nil {
			t.Errorf("twins %v: %v", flip, err)
		}
		// All windows in one, and each window listed twice.
		if err := sameComposition(c, slots, [][]circuit.NodeID{slices.Concat(windows...)}); err != nil {
			t.Errorf("twins %v, one window: %v", flip, err)
		}
		if err := sameComposition(c, slots, slices.Concat(windows, windows)); err != nil {
			t.Errorf("twins %v, listed twice: %v", flip, err)
		}
	}
}
