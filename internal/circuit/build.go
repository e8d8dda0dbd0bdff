package circuit

import (
	"fmt"
	"slices"

	"repro/internal/logic"
)

// Defs is a netlist as a reader stages it before any node exists: primary
// inputs, gate definitions and primary outputs in file order, every signal
// still a name. A gate may read a signal defined later in the file.
type Defs struct {
	Inputs  []string     // primary inputs, in declaration order
	Gates   []string     // gate g drives the signal Gates[g]
	Kinds   []logic.Kind // gate g's function (Build only)
	Args    []string     // every gate's input signals, concatenated in gate order
	Ends    []int32      // gate g reads Args[Ends[g-1]:Ends[g]] (from 0 for g = 0)
	Lines   []int32      // if set, gate g's source line, quoted in errors
	Outputs []string     // primary output names, in declaration order (Build only)
	Drivers []string     // the signal driving Outputs[i] (Build only)
}

// at prefixes an error about gate g with its source line, if known.
func (d *Defs) at(g int) string {
	if g < len(d.Lines) {
		return fmt.Sprintf("line %d: ", d.Lines[g])
	}
	return ""
}

func (d *Defs) args(g int) (int32, int32) {
	if g == 0 {
		return 0, d.Ends[0]
	}
	return d.Ends[g-1], d.Ends[g]
}

// Order returns the gates' definition order: the order in which a reader
// that retries deferred gates pass after pass would add them. Gate g's pass
// is 1, or one past a gate fanin's pass if that fanin is defined later in
// the file, or that fanin's pass if it is defined earlier — whichever is
// largest. Gates are ordered by pass, then by file position.
//
// Every node ID a reader hands out follows from this order, so it is the
// contract between the netlist formats and everything downstream that
// keys on node IDs. One memoised walk computes it in O(gates + pins). It
// fails on a duplicate or empty signal name, a read of an undefined signal,
// and a combinational cycle.
func (d *Defs) Order() ([]int32, error) {
	fan, err := d.index(make(map[string]NodeID, len(d.Inputs)+len(d.Gates)))
	if err != nil {
		return nil, err
	}
	return d.order(fan)
}

// index enters every input and gate output into names — input i as node
// i, gate g provisionally as len(Inputs)+g — and returns each Args entry
// resolved through it.
func (d *Defs) index(names map[string]NodeID) ([]NodeID, error) {
	if len(d.Ends) != len(d.Gates) {
		return nil, fmt.Errorf("%d gates but %d argument ends", len(d.Gates), len(d.Ends))
	}
	for i, s := range d.Inputs {
		if err := enter(names, s, NodeID(i)); err != nil {
			return nil, err
		}
	}
	nIn := len(d.Inputs)
	for g, s := range d.Gates {
		if err := enter(names, s, NodeID(nIn+g)); err != nil {
			return nil, fmt.Errorf("%s%w", d.at(g), err)
		}
	}
	fan := make([]NodeID, len(d.Args))
	var k int32
	for g, end := range d.Ends {
		if end < k || int(end) > len(d.Args) {
			return nil, fmt.Errorf("gate %q: argument end %d out of range", d.Gates[g], end)
		}
		for ; k < end; k++ {
			id, ok := names[d.Args[k]]
			if !ok {
				return nil, fmt.Errorf("%sgate %q reads undefined signal %q", d.at(g), d.Gates[g], d.Args[k])
			}
			fan[k] = id
		}
	}
	return fan, nil
}

func enter(names map[string]NodeID, s string, id NodeID) error {
	if s == "" {
		return fmt.Errorf("empty signal name")
	}
	n := len(names)
	if names[s] = id; len(names) == n { // one hash of s, not two
		return fmt.Errorf("signal %q defined twice", s)
	}
	return nil
}

// order computes each gate's pass (see Order) with an iterative
// depth-first walk, then counting-sorts the gates by pass, stably.
func (d *Defs) order(fan []NodeID) ([]int32, error) {
	const onStack = -1
	nIn := NodeID(len(d.Inputs))
	pass := make([]int32, len(d.Gates)) // 0: not yet reached
	type frame struct{ g, k int32 }
	var stack []frame
	maxPass := int32(0)
	for root := range pass {
		if pass[root] != 0 {
			continue
		}
		k, _ := d.args(root)
		pass[root] = onStack
		stack = append(stack[:0], frame{int32(root), k})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.k < d.Ends[top.g] {
				f := fan[top.k] - nIn
				top.k++
				if f < 0 {
					continue
				}
				switch pass[f] {
				case 0:
					k, _ := d.args(int(f))
					pass[f] = onStack
					stack = append(stack, frame{int32(f), k})
				case onStack:
					return nil, fmt.Errorf("%sgate %q is on a combinational cycle", d.at(int(f)), d.Gates[f])
				}
				continue
			}
			g := top.g
			stack = stack[:len(stack)-1]
			p := int32(1)
			lo, hi := d.args(int(g))
			for _, f := range fan[lo:hi] {
				if f -= nIn; f >= 0 {
					q := pass[f]
					if int32(f) > g {
						q++
					}
					p = max(p, q)
				}
			}
			pass[g] = p
			maxPass = max(maxPass, p)
		}
	}
	next := make([]int32, maxPass+2) // next[p]: first free slot of pass p
	for _, p := range pass {
		next[p+1]++
	}
	for p := 1; p < len(next); p++ {
		next[p] += next[p-1]
	}
	order := make([]int32, len(pass))
	for g, p := range pass {
		order[next[p]] = int32(g)
		next[p]++
	}
	return order, nil
}

// Staged is a netlist that passed Defs.Check, read in place: no node is
// built, linked or validated. Its node IDs are provisional — input i is
// node i and gate g is node len(Inputs)+g, in file order, not Build's
// definition order — so they index nothing but the Staged itself. It
// provides Netlist, the name-resolved access a structural comparison with
// another netlist needs (the fingerprint extractor's), at a fraction of
// what Build costs.
type Staged struct {
	d     *Defs
	names map[string]NodeID // every input and gate output, by provisional ID
	fan   []NodeID          // d.Args resolved through names
}

var (
	_ Netlist = (*Staged)(nil)
	_ Netlist = (*Circuit)(nil)
)

// Lookup returns the node driving the signal name, or (None, false).
func (s *Staged) Lookup(name string) (NodeID, bool) {
	id, ok := s.names[name]
	if !ok {
		return None, false
	}
	return id, true
}

// NodeName returns the name of the signal node id drives.
func (s *Staged) NodeName(id NodeID) string {
	if n := NodeID(len(s.d.Inputs)); id < n {
		return s.d.Inputs[id]
	}
	return s.d.Gates[int(id)-len(s.d.Inputs)]
}

// Gate returns node id's kind and fanin, or ok false for a primary input.
// The fanin slice is shared and must not be modified.
func (s *Staged) Gate(id NodeID) (kind logic.Kind, fanin []NodeID, ok bool) {
	g := int(id) - len(s.d.Inputs)
	if g < 0 {
		return 0, nil, false
	}
	lo, hi := s.d.args(g)
	return s.d.Kinds[g], s.fan[lo:hi:hi], true
}

// Check makes every accept/reject decision Build makes, with the same
// errors, without building a node: Build is Check plus construction, so
// the two cannot disagree. The decisions are
//   - Order's: unique non-empty signal names, every read signal defined,
//     no combinational cycle;
//   - AddGate's and AddPO's: valid kinds and arities, every output driven
//     by a defined signal;
//   - Validate's, which a built circuit would fail: at least one primary
//     input and one output, no gate reading one signal on two pins, and
//     non-empty, distinct output names.
//
// Validate's other checks — name index, fanout lists, PI fanin, fanin
// range — are about a built circuit's bookkeeping, which Build derives
// from d and cannot get wrong. The result keeps d, which must not change.
func (d *Defs) Check(name string) (*Staged, error) {
	s, _, err := d.check(name)
	return s, err
}

// check is Check that also returns the definition order Build numbers the
// gates in. Its errors come in the order Build and Validate would meet
// them: names, kinds and arities, cycles, output drivers, then Validate's.
func (d *Defs) check(name string) (*Staged, []int32, error) {
	nIn, nG := len(d.Inputs), len(d.Gates)
	if len(d.Kinds) != nG || len(d.Drivers) != len(d.Outputs) {
		return nil, nil, fmt.Errorf("circuit %s: %d gates with %d kinds, %d outputs with %d drivers",
			name, nG, len(d.Kinds), len(d.Outputs), len(d.Drivers))
	}
	s := &Staged{d: d, names: make(map[string]NodeID, nIn+nG)}
	var err error
	if s.fan, err = d.index(s.names); err != nil {
		return nil, nil, fmt.Errorf("circuit %s: %w", name, err)
	}
	for g, kind := range d.Kinds {
		if !kind.Valid() {
			return nil, nil, fmt.Errorf("circuit %s: %sgate %q: invalid kind %d", name, d.at(g), d.Gates[g], uint8(kind))
		}
		lo, hi := d.args(g)
		if err := checkArity(kind, int(hi-lo)); err != nil {
			return nil, nil, fmt.Errorf("circuit %s: %sgate %q: %w", name, d.at(g), d.Gates[g], err)
		}
	}
	order, err := d.order(s.fan)
	if err != nil {
		return nil, nil, fmt.Errorf("circuit %s: %w", name, err)
	}
	for i, po := range d.Outputs {
		if _, ok := s.names[d.Drivers[i]]; !ok {
			return nil, nil, fmt.Errorf("circuit %s: output %q has no driver", name, po)
		}
	}
	if nIn == 0 {
		return nil, nil, fmt.Errorf("circuit %s: no primary inputs", name)
	}
	if len(d.Outputs) == 0 {
		return nil, nil, fmt.Errorf("circuit %s: no primary outputs", name)
	}
	for _, g := range order { // Validate walks the gates in node ID order
		lo, hi := d.args(int(g))
		pins := s.fan[lo:hi]
		for j, f := range pins {
			if slices.Contains(pins[:j], f) {
				return nil, nil, fmt.Errorf("circuit %s: gate %q: duplicate fanin %q", name, d.Gates[g], s.NodeName(f))
			}
		}
	}
	listed := make(map[string]bool, len(d.Outputs))
	for _, po := range d.Outputs {
		if po == "" {
			return nil, nil, fmt.Errorf("circuit %s: PO with empty name", name)
		}
		if listed[po] {
			return nil, nil, fmt.Errorf("circuit %s: duplicate PO name %q", name, po)
		}
		listed[po] = true
	}
	return s, order, nil
}

// Build constructs the circuit d describes, in one bulk pass: primary
// inputs take IDs 0..len(Inputs)-1 in declaration order, gates follow in
// definition order (Order), and primary outputs are declared in file
// order. The result — node IDs, fanin and fanout order, names, version —
// is the one AddPI, AddGate and AddPO calls in that order would build.
// Build rejects exactly what Check rejects, and its result is valid: its
// Validate memo is set, so a later Validate is O(1).
//
// Fanins share one slab and fanouts another, each node's slice capped at
// its length, so a later edit of one node reallocates rather than writing
// into its neighbour's pins.
func Build(name string, d *Defs) (*Circuit, error) {
	s, order, err := d.check(name)
	if err != nil {
		return nil, err
	}
	nIn, nG := len(d.Inputs), len(d.Gates)
	c := &Circuit{Name: name, byName: s.names}

	// id maps a provisional ID (index's numbering) to the final one.
	id := make([]NodeID, nIn+nG)
	for i := range nIn {
		id[i] = NodeID(i)
	}
	for pos, g := range order {
		id[nIn+int(g)] = NodeID(nIn + pos)
		if int(g) != pos { // a netlist in topological order skips this
			c.byName[d.Gates[g]] = NodeID(nIn + pos)
		}
	}
	c.Nodes = make([]Node, nIn+nG)
	c.PIs = make([]NodeID, nIn)
	for i, in := range d.Inputs {
		c.Nodes[i] = Node{Name: in, IsPI: true}
		c.PIs[i] = NodeID(i)
	}
	fanin := make([]NodeID, len(d.Args))
	fanouts := make([]int32, nIn+nG+1) // fanout count, then each list's end
	at := 0
	for pos, g := range order {
		lo, hi := d.args(int(g))
		pins := fanin[at : at+int(hi-lo) : at+int(hi-lo)]
		for j, f := range s.fan[lo:hi] {
			pins[j] = id[f]
			fanouts[id[f]]++
		}
		at += len(pins)
		if len(pins) == 0 {
			pins = nil
		}
		c.Nodes[nIn+pos] = Node{Name: d.Gates[g], Kind: d.Kinds[g], Fanin: pins}
	}
	c.linkFanouts(fanouts, len(d.Args))

	c.POs = make([]PO, len(d.Outputs))
	for i, po := range d.Outputs {
		drv := c.byName[d.Drivers[i]]
		if po == d.Drivers[i] {
			po = c.Nodes[drv].Name // share the node's copy of the name
		}
		c.POs[i] = PO{Name: po, Driver: drv}
	}
	c.version = uint64(nIn + nG + len(d.Outputs))
	c.validVersion, c.validValid = c.version, true
	return c, nil
}

// linkFanouts sets every node's fanout list from the fanin lists. On entry
// counts[i] is node i's number of fanout edges, for len(c.Nodes)+1 entries
// (the last 0), and edges is their sum. The lists share one slab, each
// capped at its length.
func (c *Circuit) linkFanouts(counts []int32, edges int) {
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	// Walking the sinks backwards fills each list from its end, leaving
	// counts[i] at list i's start and every list in ascending sink order —
	// the order AddGate appends them in.
	fanout := make([]NodeID, edges)
	for s := len(c.Nodes) - 1; s >= 0; s-- {
		pins := c.Nodes[s].Fanin
		for j := len(pins) - 1; j >= 0; j-- {
			counts[pins[j]]--
			fanout[counts[pins[j]]] = NodeID(s)
		}
	}
	for i := range c.Nodes {
		if lo, hi := counts[i], counts[i+1]; hi > lo {
			c.Nodes[i].fanout = fanout[lo:hi:hi]
		}
	}
}
