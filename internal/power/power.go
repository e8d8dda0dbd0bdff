// Package power estimates circuit power under the standard zero-delay
// probabilistic model used by academic flows: signal probabilities propagate
// through the netlist assuming spatial independence (PIs at P[1] = 0.5),
// switching activity of a node is α = 2·p·(1−p), and dynamic power is
// proportional to α times the capacitive load the node drives. Per-cell
// leakage is added on top. The absolute unit is arbitrary but consistent,
// which is all the paper's power-overhead percentages require.
package power

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/sim"
)

// Report holds a power estimate broken into components.
type Report struct {
	Dynamic float64
	Leakage float64
	Total   float64
	// PerNode is each node's dynamic contribution (indexed by NodeID);
	// used by the constraint heuristics to estimate removal benefits.
	PerNode []float64
	// Prob1 is each node's probability of being 1.
	Prob1 []float64
	// Activity is each node's switching activity 2p(1−p).
	Activity []float64
}

// Probabilities computes P[node = 1] for every node with PIs at 0.5,
// assuming independence (the classic first-order approximation; exact for
// tree circuits, approximate under reconvergent fanout).
func Probabilities(c *circuit.Circuit) ([]float64, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	p := make([]float64, len(c.Nodes))
	buf := make([]float64, 0, 8)
	for _, id := range order {
		nd := &c.Nodes[id]
		if nd.IsPI {
			p[id] = 0.5
			continue
		}
		buf = buf[:0]
		for _, f := range nd.Fanin {
			buf = append(buf, p[f])
		}
		p[id] = nd.Kind.Prob1(buf)
	}
	return p, nil
}

// Estimate computes the power report of c under library lib.
func Estimate(c *circuit.Circuit, lib *cell.Library) (*Report, error) {
	prob, err := Probabilities(c)
	if err != nil {
		return nil, err
	}
	loads, err := cell.Loads(lib, c)
	if err != nil {
		return nil, err
	}
	r := &Report{
		PerNode:  make([]float64, len(c.Nodes)),
		Prob1:    prob,
		Activity: make([]float64, len(c.Nodes)),
	}
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		alpha := 2 * prob[i] * (1 - prob[i])
		r.Activity[i] = alpha
		dyn := lib.VddSqFreq * loads[i] * alpha
		r.PerNode[i] = dyn
		r.Dynamic += dyn
		if !nd.IsPI {
			cl, err := lib.Lookup(nd.Kind, len(nd.Fanin))
			if err != nil {
				return nil, fmt.Errorf("power: node %q: %w", nd.Name, err)
			}
			r.Leakage += cl.Leakage
		}
	}
	r.Total = r.Dynamic + r.Leakage
	return r, nil
}

// Total is a convenience wrapper returning just the total power.
func Total(c *circuit.Circuit, lib *cell.Library) (float64, error) {
	r, err := Estimate(c, lib)
	if err != nil {
		return 0, err
	}
	return r.Total, nil
}

// MeasuredActivity estimates switching activity by toggle-counting a random
// simulation of nWords×64 patterns. It serves as a cross-check of the
// probabilistic model in tests (activity ≈ toggles / patterns), so it runs
// on the gate-level reference simulator (sim.ToggleCounts) over memoized
// random vectors: the check stays independent of the packed AIG kernel.
func MeasuredActivity(c *circuit.Circuit, nWords int, seed int64) ([]float64, error) {
	counts, err := sim.ToggleCounts(c, sim.SharedRandom(len(c.PIs), nWords, seed))
	if err != nil {
		return nil, err
	}
	patterns := float64(nWords*64 - 1)
	out := make([]float64, len(counts))
	for i, n := range counts {
		out[i] = float64(n) / patterns
	}
	return out, nil
}
