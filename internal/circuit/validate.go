package circuit

import (
	"fmt"
	"sort"
)

// Validate checks structural well-formedness: unique non-empty names, legal
// kinds and arities, in-range fanin references, fanout bookkeeping consistent
// with fanin lists, no PI with fanin, at least one PI and one PO, and
// acyclicity. It returns the first problem found.
//
// A successful validation is memoized per Version: re-validating an
// unchanged netlist is O(1), so analysis entry points may call Validate
// defensively without re-paying the full structural walk. Any mutation
// invalidates the memo.
func (c *Circuit) Validate() error {
	if c.validValid && c.validVersion == c.version {
		return nil
	}
	if err := c.validateUncached(); err != nil {
		return err
	}
	c.validValid = true
	c.validVersion = c.version
	return nil
}

func (c *Circuit) validateUncached() error {
	if len(c.PIs) == 0 {
		return fmt.Errorf("circuit %s: no primary inputs", c.Name)
	}
	if len(c.POs) == 0 {
		return fmt.Errorf("circuit %s: no primary outputs", c.Name)
	}
	// Names: the index must be a bijection between the n node slots and n
	// distinct non-empty names whose entries point at matching nodes. One
	// linear map iteration proves it — n distinct keys, each mapping to an
	// in-range node whose Name equals the key, forces every node to carry a
	// unique indexed name — without hashing any string.
	if len(c.byName) != len(c.Nodes) {
		return fmt.Errorf("circuit %s: name index has %d entries for %d nodes", c.Name, len(c.byName), len(c.Nodes))
	}
	for name, id := range c.byName {
		if id < 0 || int(id) >= len(c.Nodes) || c.Nodes[id].Name != name {
			return fmt.Errorf("circuit %s: name index stale for %q", c.Name, name)
		}
	}
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if nd.Name == "" {
			return fmt.Errorf("circuit %s: node %d has empty name", c.Name, i)
		}
		if nd.IsPI {
			if len(nd.Fanin) != 0 {
				return fmt.Errorf("circuit %s: PI %q has fanin", c.Name, nd.Name)
			}
			continue
		}
		if !nd.Kind.Valid() {
			return fmt.Errorf("circuit %s: gate %q has invalid kind %d", c.Name, nd.Name, uint8(nd.Kind))
		}
		if err := checkArity(nd.Kind, len(nd.Fanin)); err != nil {
			return fmt.Errorf("circuit %s: gate %q: %w", c.Name, nd.Name, err)
		}
		for j, f := range nd.Fanin {
			if f < 0 || int(f) >= len(c.Nodes) {
				return fmt.Errorf("circuit %s: gate %q: fanin %d out of range", c.Name, nd.Name, f)
			}
			for _, g := range nd.Fanin[:j] {
				if g == f {
					return fmt.Errorf("circuit %s: gate %q: duplicate fanin %q", c.Name, nd.Name, c.Nodes[f].Name)
				}
			}
		}
	}
	// PI list consistency.
	for _, pi := range c.PIs {
		if pi < 0 || int(pi) >= len(c.Nodes) || !c.Nodes[pi].IsPI {
			return fmt.Errorf("circuit %s: PI list entry %d is not a PI node", c.Name, pi)
		}
	}
	// PO validity.
	poNames := make(map[string]bool, len(c.POs))
	for _, po := range c.POs {
		if po.Name == "" {
			return fmt.Errorf("circuit %s: PO with empty name", c.Name)
		}
		if poNames[po.Name] {
			return fmt.Errorf("circuit %s: duplicate PO name %q", c.Name, po.Name)
		}
		poNames[po.Name] = true
		if po.Driver < 0 || int(po.Driver) >= len(c.Nodes) {
			return fmt.Errorf("circuit %s: PO %q driver out of range", c.Name, po.Name)
		}
	}
	// Fanout lists must mirror fanin lists exactly (as multisets). Both edge
	// directions are flattened into per-source buckets and compared sorted —
	// O(E log maxFanout) with no map traffic.
	n := len(c.Nodes)
	counts := make([]int32, n)
	total := 0
	for i := range c.Nodes {
		for _, f := range c.Nodes[i].Fanin {
			counts[f]++
			total++
		}
	}
	starts := make([]int32, n+1)
	for i := 0; i < n; i++ {
		starts[i+1] = starts[i] + counts[i]
	}
	sinks := make([]NodeID, total) // fanin-side edges bucketed by source
	fill := append([]int32(nil), starts[:n]...)
	for i := range c.Nodes {
		for _, f := range c.Nodes[i].Fanin {
			sinks[fill[f]] = NodeID(i)
			fill[f]++
		}
	}
	var scratch []NodeID
	for i := range c.Nodes {
		want := sinks[starts[i]:starts[i+1]]
		got := c.Nodes[i].fanout
		if len(want) != len(got) {
			return fmt.Errorf("circuit %s: fanout bookkeeping inconsistent at %q (%d fanin edges, %d fanout edges)",
				c.Name, c.Nodes[i].Name, len(want), len(got))
		}
		if len(got) == 0 {
			continue
		}
		scratch = append(scratch[:0], got...)
		sortNodeIDs(want) // in-place: bucket order is scratch anyway
		sortNodeIDs(scratch)
		for j := range want {
			if want[j] != scratch[j] {
				return fmt.Errorf("circuit %s: edge %q->%q count mismatch between fanin and fanout lists",
					c.Name, c.Nodes[i].Name, c.Nodes[want[j]].Name)
			}
		}
	}
	if _, err := c.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// sortNodeIDs sorts a small NodeID slice: insertion sort for the common
// few-sink case, sort.Slice beyond that.
func sortNodeIDs(s []NodeID) {
	if len(s) <= 16 {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// Sweep removes gates that cannot reach any primary output, compacting node
// IDs. It returns a new circuit (the receiver is unchanged) and the number of
// removed gates. PIs are always kept, even if unused, so that two circuits
// over the same interface stay comparable.
//
// The kept nodes take IDs in the receiver's topological order, and the
// result — node IDs, names, fanin and fanout order, PIs, POs and version —
// is the one AddPI, AddGate and AddPOs calls in that order would build. It
// is built in bulk by Assemble. The receiver must be valid; so is the
// result, and if the receiver's Validate memo is set, so is the result's.
// The result's TopoOrder memo is always set.
func (c *Circuit) Sweep() (*Circuit, int) {
	keep := c.Reachable()
	for _, pi := range c.PIs {
		keep[pi] = true
	}
	order := c.MustTopoOrder()
	// remap[id] is id's node ID in the result; a kept node's fanins are
	// kept too and come earlier in order, so they are numbered first.
	remap := make([]NodeID, len(c.Nodes))
	n, pins, removed := 0, 0, 0
	for _, id := range order {
		if !keep[id] {
			if !c.Nodes[id].IsPI {
				removed++
			}
			continue
		}
		remap[id] = NodeID(n)
		n++
		pins += len(c.Nodes[id].Fanin)
	}
	nodes := make([]Node, n)
	pis := make([]NodeID, 0, len(c.PIs))
	fanin := make([]NodeID, pins)
	fanouts := make([]int32, n+1) // fanout count, then each list's end
	names := make(map[string]NodeID, n)
	for _, id := range order {
		if !keep[id] {
			continue
		}
		nd, nid := &c.Nodes[id], remap[id]
		names[nd.Name] = nid
		if nd.IsPI {
			nodes[nid] = Node{Name: nd.Name, IsPI: true}
			pis = append(pis, nid)
			continue
		}
		var pin []NodeID
		if k := len(nd.Fanin); k > 0 {
			pin, fanin = fanin[:k:k], fanin[k:]
			for j, f := range nd.Fanin {
				pin[j] = remap[f]
				fanouts[pin[j]]++
			}
		}
		nodes[nid] = Node{Name: nd.Name, Kind: nd.Kind, Fanin: pin}
	}
	pos := make([]PO, len(c.POs))
	for i, po := range c.POs {
		pos[i] = PO{Name: po.Name, Driver: remap[po.Driver]}
	}
	s := assemble(c.Name, nodes, pis, pos, names, fanouts, pins)
	// s is numbered in a Kahn order of c and its fanout lists run in
	// ascending ID order, so its own Kahn order (TopoOrder) is 0..n-1: it
	// is memoized in remap, spent by now. A valid c makes s valid too.
	topo := remap[:n:n]
	for i := range topo {
		topo[i] = NodeID(i)
	}
	s.topo, s.topoVersion, s.topoValid = topo, s.version, true
	if c.validValid && c.validVersion == c.version {
		s.validVersion, s.validValid = s.version, true
	}
	return s, removed
}

// Assemble builds a circuit from finished node records in one bulk pass:
// nodes[i] is node i with its name, PI flag, kind and fanin set, pis lists
// the primary inputs and pos the outputs. It derives the fanout lists, each
// in ascending sink order, and a name index sized for the nodes. The
// result's version is the one AddPI and AddGate calls in ID order followed
// by AddPOs would give it, so a circuit built node by node in that order is
// identical to it.
//
// The circuit takes ownership of the three slices. Fanouts share one slab,
// each list capped at its length; callers cap every fanin list likewise,
// so a later edit of one node reallocates rather than writing into its
// neighbour's pins. Assemble checks nothing and does not mark the result
// valid: the caller vouches that every fanin is in range.
func Assemble(name string, nodes []Node, pis []NodeID, pos []PO) *Circuit {
	names := make(map[string]NodeID, len(nodes))
	fanouts := make([]int32, len(nodes)+1)
	edges := 0
	for i := range nodes {
		names[nodes[i].Name] = NodeID(i)
		for _, f := range nodes[i].Fanin {
			fanouts[f]++
		}
		edges += len(nodes[i].Fanin)
	}
	return assemble(name, nodes, pis, pos, names, fanouts, edges)
}

// assemble is Assemble given the name index, each node's fanout count in
// fanouts, for len(nodes)+1 entries (the last 0), and their sum in edges.
func assemble(name string, nodes []Node, pis []NodeID, pos []PO, names map[string]NodeID, fanouts []int32, edges int) *Circuit {
	c := &Circuit{
		Name:   name,
		Nodes:  nodes,
		PIs:    pis,
		POs:    pos,
		byName: names,
		// One touch per AddPI and AddGate, and one per output, as AddPOs.
		version: uint64(len(nodes) + len(pos)),
	}
	c.linkFanouts(fanouts, edges)
	return c
}
