package circuit

import "fmt"

// TopoOrder returns all node IDs in a topological order (every node appears
// after all of its fanin). Primary inputs come first in PI declaration order.
// It returns an error if the netlist contains a combinational cycle.
//
// The order is memoized per Circuit.Version: repeated calls on an unchanged
// netlist return the same cached slice in O(1), and any mutation invalidates
// the cache. Callers must treat the returned slice as read-only.
func (c *Circuit) TopoOrder() ([]NodeID, error) {
	if c.topoValid && c.topoVersion == c.version {
		return c.topo, nil
	}
	order, err := c.topoOrderUncached()
	if err != nil {
		return nil, err
	}
	c.topo = order
	c.topoVersion = c.version
	c.topoValid = true
	return order, nil
}

func (c *Circuit) topoOrderUncached() ([]NodeID, error) {
	n := len(c.Nodes)
	indeg := make([]int, n)
	for i := range c.Nodes {
		indeg[i] = len(c.Nodes[i].Fanin)
	}
	order := make([]NodeID, 0, n)
	queue := make([]NodeID, 0, n)
	// Seed with PIs first (stable order), then other zero-fanin nodes
	// (constants) in ID order.
	for _, pi := range c.PIs {
		queue = append(queue, pi)
	}
	for i := range c.Nodes {
		if !c.Nodes[i].IsPI && indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range c.Nodes[id].fanout {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("circuit %s: combinational cycle detected (%d of %d nodes ordered)", c.Name, len(order), n)
	}
	return order, nil
}

// MustTopoOrder is TopoOrder but panics on a cycle. Analysis passes that run
// after Validate may use it.
func (c *Circuit) MustTopoOrder() []NodeID {
	order, err := c.TopoOrder()
	if err != nil {
		panic(err)
	}
	return order
}

// Acyclic reports whether the netlist is free of combinational cycles.
func (c *Circuit) Acyclic() bool {
	_, err := c.TopoOrder()
	return err == nil
}

// Levels returns, for every node, its logic level: 0 for PIs and constants,
// 1 + max(level of fanin) for gates. This is the "depth" used by the paper's
// Fig. 6 heuristic (choose the deepest FFC fanin, the shallowest trigger).
//
// The schedule is memoized per Version like TopoOrder; the returned slice is
// shared across callers and must be treated as read-only.
func (c *Circuit) Levels() []int {
	if c.levelsValid && c.levelsVersion == c.version {
		return c.levels
	}
	levels := make([]int, len(c.Nodes))
	for _, id := range c.MustTopoOrder() {
		nd := &c.Nodes[id]
		l := 0
		for _, f := range nd.Fanin {
			if levels[f]+1 > l {
				l = levels[f] + 1
			}
		}
		levels[id] = l
	}
	c.levels = levels
	c.levelsVersion = c.version
	c.levelsValid = true
	return levels
}

// TFI returns the transitive fanin set of id (excluding id itself) as a
// boolean mask indexed by NodeID.
func (c *Circuit) TFI(id NodeID) []bool {
	mask := make([]bool, len(c.Nodes))
	var stack []NodeID
	stack = append(stack, c.Nodes[id].Fanin...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mask[n] {
			continue
		}
		mask[n] = true
		stack = append(stack, c.Nodes[n].Fanin...)
	}
	return mask
}

// TFO returns the transitive fanout set of id (excluding id itself) as a
// boolean mask indexed by NodeID.
func (c *Circuit) TFO(id NodeID) []bool {
	mask := make([]bool, len(c.Nodes))
	var stack []NodeID
	stack = append(stack, c.Nodes[id].fanout...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mask[n] {
			continue
		}
		mask[n] = true
		stack = append(stack, c.Nodes[n].fanout...)
	}
	return mask
}

// Reachable returns the set of nodes on some path to a primary output,
// including PO drivers themselves, as a mask indexed by NodeID. Nodes outside
// the mask are dead logic.
func (c *Circuit) Reachable() []bool {
	mask := make([]bool, len(c.Nodes))
	// A node is marked as it is pushed, so the stack holds each node at
	// most once and never outgrows its first allocation.
	stack := make([]NodeID, 0, len(c.Nodes))
	push := func(n NodeID) {
		if !mask[n] {
			mask[n] = true
			stack = append(stack, n)
		}
	}
	for _, po := range c.POs {
		push(po.Driver)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Nodes[n].Fanin {
			push(f)
		}
	}
	return mask
}
