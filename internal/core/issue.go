package core

import (
	"fmt"
	"strconv"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/obs"
)

// This file issues copies: each is a selection from the analysed netlist,
// built in one pass from an issue plan the analysis computes once. The pass
// reproduces exactly what the Working route (NewWorking, then Snapshot)
// builds, node for node, without cloning the master or adding a gate at a
// time; TestEmbedMatchesOracle holds the two together.

// Embed applies an assignment to the analysed circuit and returns the
// fingerprinted netlist: the paper's "output new file" step of Fig. 6. The
// copy is built in one pass and checked against the slot model
// (conformance.go) before it is returned; a copy that fails the check is
// refused with an error wrapping ErrNonconforming.
//
// The result is identical to NewWorking(a, asg).Snapshot(): the working
// circuit's helper inverters are appended in apply order and named as
// FreshName names them, and the copy is swept, so its nodes are numbered
// in the working circuit's topological order and dead logic is dropped.
func Embed(a *Analysis, asg Assignment) (*circuit.Circuit, error) {
	sp := obs.Start("core.embed")
	defer sp.End()
	mEmbeds.Inc()
	if err := asg.validate(a); err != nil {
		return nil, err
	}
	p, err := a.issuePlan()
	if err != nil {
		return nil, err
	}
	digits := make([]int, 0, len(a.Radices()))
	for i := range asg {
		digits = append(digits, asg[i]...)
	}
	cp, err := p.emit(a, digits)
	if err != nil {
		return nil, err
	}
	if err := a.Conforms(cp, digits); err != nil {
		return nil, err
	}
	return cp, nil
}

// EmbedAll embeds the FullAssignment (every location modified once), the
// configuration measured in Table II.
func EmbedAll(a *Analysis) (*circuit.Circuit, error) {
	return Embed(a, FullAssignment(a))
}

// issuePlan is what every copy of one analysis shares: the nodes a sweep
// keeps, the Kahn seeds, and the names of each literal source's helper
// inverters. The rest is read from the master and the catalogue.
type issuePlan struct {
	// live marks the master nodes a sweep keeps: the PIs and every node
	// with a path to an output. A modification never changes it (see
	// newIssuePlan), and a helper inverter lives exactly when its target
	// does.
	live []bool
	// seeds starts Kahn's order as TopoOrder does: the PIs in declaration
	// order, then the other nodes without fanin in ID order.
	seeds []circuit.NodeID
	// Helper name k is names[nameEnd[k]:nameEnd[k+1]]. A negated literal
	// source x's helpers take names nameAt[x], nameAt[x]+1, ... in the
	// order a copy creates them.
	names   string
	nameEnd []int32
	nameAt  []int32
}

// issuePlan returns the analysis's issue plan, built on first use.
func (a *Analysis) issuePlan() (*issuePlan, error) {
	a.planOnce.Do(func() { a.plan, a.planErr = newIssuePlan(a) })
	return a.plan, a.planErr
}

func newIssuePlan(a *Analysis) (*issuePlan, error) {
	c := a.Circuit
	n := len(c.Nodes)
	p := &issuePlan{live: c.Reachable(), seeds: append(make([]circuit.NodeID, 0, len(c.PIs)), c.PIs...)}
	for i := range c.Nodes {
		p.live[i] = p.live[i] || c.Nodes[i].IsPI
		if !c.Nodes[i].IsPI && len(c.Nodes[i].Fanin) == 0 {
			p.seeds = append(p.seeds, circuit.NodeID(i))
		}
	}

	// most[x] is the most helper inverters source x has in any copy: the
	// sum over slots of the most any one option of the slot gives it.
	// count and slotMost are per-option and per-slot scratch.
	scratch := make([]int32, 3*n)
	most, count, slotMost := scratch[:n], scratch[n:2*n], scratch[2*n:]
	for i := range a.Locations {
		for j := range a.Locations[i].Targets {
			tgt := &a.Locations[i].Targets[j]
			for _, v := range tgt.Variants {
				for _, l := range v.Lits {
					// A copy adds edges from literal sources into targets
					// only. A source feeds the location's primary gate,
					// directly or through the trigger, and a target
					// reaches the outputs only through that gate (its cone
					// is fanout-free), so a live target's sources are live
					// already and no copy makes a dead master node live.
					if p.live[tgt.Gate] && !p.live[l.Node] {
						return nil, fmt.Errorf("core: target %q is live but its literal %q is not", c.Nodes[tgt.Gate].Name, c.Nodes[l.Node].Name)
					}
					if l.Neg {
						count[l.Node]++
						slotMost[l.Node] = max(slotMost[l.Node], count[l.Node])
					}
				}
				for _, l := range v.Lits {
					count[l.Node] = 0
				}
			}
			for _, v := range tgt.Variants {
				for _, l := range v.Lits {
					most[l.Node] += slotMost[l.Node]
					slotMost[l.Node] = 0
				}
			}
		}
	}

	// The k-th helper of source x takes the k-th name FreshName offers
	// that the master does not use: "fp_x_n", then "fp_x_n_0", "fp_x_n_1",
	// and so on. No helper of another source can take one of these names:
	// "fp_y_n" ends in "_n" and "fp_y_n_k" in "_n_k", and either spells one
	// of x's names only when y is x.
	p.nameAt = make([]int32, n)
	p.nameEnd = []int32{0}
	var text []byte
	for x := range n {
		if most[x] == 0 {
			continue
		}
		p.nameAt[x] = int32(len(p.nameEnd) - 1)
		prefix := "fp_" + c.Nodes[x].Name + "_n"
		for k, named := -1, int32(0); named < most[x]; k++ {
			name := prefix
			if k >= 0 {
				name += "_" + strconv.Itoa(k)
			}
			if _, taken := c.Lookup(name); !taken {
				text = append(text, name...)
				p.nameEnd = append(p.nameEnd, int32(len(text)))
				named++
			}
		}
	}
	p.names = string(text)
	return p, nil
}

// chosen is one slot's target gate and its chosen variant.
type chosen struct {
	gate    circuit.NodeID
	variant *Variant
}

// emit builds the copy that digits (one per slot in Slots order, −1 for
// unmodified) select. It numbers the working circuit's nodes as NewWorking
// would — the master's, then each helper inverter in apply order — orders
// them by Kahn's algorithm exactly as TopoOrder does on that circuit, drops
// what Sweep drops and fills pre-sized slabs with the rest.
func (p *issuePlan) emit(a *Analysis, digits []int) (*circuit.Circuit, error) {
	master := a.Circuit
	n := len(master.Nodes)
	// Each slot's target and chosen variant (nil when unmodified), and the
	// helper inverters and the edges the modifications add: one from each
	// helper's source, then one per pin into the target.
	vars := make([]chosen, len(digits))
	helpers, extra, s := 0, 0, 0
	for i := range a.Locations {
		for j := range a.Locations[i].Targets {
			if d := digits[s]; d >= 0 {
				tgt := &a.Locations[i].Targets[j]
				v := &tgt.Variants[d]
				vars[s] = chosen{tgt.Gate, v}
				for _, l := range v.Lits {
					if l.Neg {
						helpers++
						extra++
					}
				}
				extra += len(v.Lits)
			}
			s++
		}
	}
	total := n + helpers

	// One slab of scratch, zeroed by make. Lists and flags hold index+1,
	// so zero means none.
	slab := make([]int32, 4*total+2*n+3*helpers+3*extra+len(digits))
	cut := func(k int) []int32 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	indeg, order, remap, xhead := cut(total), cut(total), cut(total), cut(total)
	active := cut(n) // per master node: its modified slot + 1, or 0
	used := cut(n)   // per negated literal source: helpers named so far
	hsrc, htgt, hname := cut(helpers), cut(helpers), cut(helpers)
	xsrc, xdst, xnext := cut(extra), cut(extra), cut(extra)
	first := cut(len(digits)) // each modified slot's first helper

	// Apply the modifications in slot order, as NewWorking does: helpers
	// take IDs n, n+1, ... and every added edge is listed in append order.
	edges := 0
	for i := range master.Nodes {
		indeg[i] = int32(len(master.Nodes[i].Fanin))
		edges += len(master.Nodes[i].Fanin)
	}
	h, e := 0, 0
	var kinds [len(mVariantKind)]int64
	for s, c := range vars {
		v := c.variant
		if v == nil {
			continue
		}
		g := int32(c.gate)
		kinds[v.Kind]++
		active[g] = int32(s) + 1
		indeg[g] += int32(len(v.Lits))
		first[s] = int32(n + h)
		for _, l := range v.Lits {
			if l.Neg {
				hsrc[h], htgt[h] = int32(l.Node), g
				hname[h] = p.nameAt[l.Node] + used[l.Node]
				used[l.Node]++
				indeg[n+h] = 1
				xsrc[e], xdst[e] = int32(l.Node), int32(n+h)
				e++
				h++
			}
		}
		pin := first[s]
		for _, l := range v.Lits {
			src := int32(l.Node)
			if l.Neg {
				src = pin
				pin++
			}
			xsrc[e], xdst[e] = src, g
			e++
		}
	}
	for k, c := range kinds {
		mModsEmbedded.Add(c)
		mVariantKind[k].Add(c)
	}
	// Walking the edges backwards and pushing each onto the front of its
	// source's list leaves every list in append order.
	for e := extra - 1; e >= 0; e-- {
		xnext[e] = xhead[xsrc[e]]
		xhead[xsrc[e]] = int32(e) + 1
	}

	// Kahn's pass, queue and order in one array: each node's fanouts in
	// master order, then its added edges.
	tail := 0
	for _, id := range p.seeds {
		order[tail] = int32(id)
		tail++
	}
	for head := 0; head < tail; head++ {
		id := order[head]
		if int(id) < n {
			for _, t := range master.Nodes[id].Fanout() {
				if indeg[t]--; indeg[t] == 0 {
					order[tail] = int32(t)
					tail++
				}
			}
		}
		for x := xhead[id]; x != 0; x = xnext[x-1] {
			t := xdst[x-1]
			if indeg[t]--; indeg[t] == 0 {
				order[tail] = t
				tail++
			}
		}
	}
	if tail != total {
		return nil, fmt.Errorf("core: copy of %s has a combinational cycle (%d of %d nodes ordered)", master.Name, tail, total)
	}

	// Keep what a sweep keeps, numbered in Kahn's order: a node's fanins
	// come before it, so they are numbered by the time it is filled. The
	// slabs are sized for the whole working circuit; only dead logic, rare
	// in an uploaded design, leaves them part empty.
	nodes := make([]circuit.Node, total)
	fanin := make([]circuit.NodeID, edges+extra)
	kept := 0
	for _, id := range order {
		if int(id) >= n {
			k := int(id) - n
			if !p.live[htgt[k]] {
				continue
			}
			pin := fanin[:1:1]
			fanin = fanin[1:]
			pin[0] = circuit.NodeID(remap[hsrc[k]])
			name := p.names[p.nameEnd[hname[k]]:p.nameEnd[hname[k]+1]]
			nodes[kept] = circuit.Node{Name: name, Kind: logic.Inv, Fanin: pin}
		} else if nd := &master.Nodes[id]; !p.live[id] {
			continue
		} else if nd.IsPI {
			nodes[kept] = circuit.Node{Name: nd.Name, IsPI: true}
		} else {
			kind, w := nd.Kind, len(nd.Fanin)
			var v *Variant
			if s := active[id]; s != 0 {
				v = vars[s-1].variant
				kind, w = v.NewGateKind, w+len(v.Lits)
			}
			var pin []circuit.NodeID
			if w > 0 {
				pin, fanin = fanin[:w:w], fanin[w:]
				for k, f := range nd.Fanin {
					pin[k] = circuit.NodeID(remap[f])
				}
				if v != nil {
					k, helper := len(nd.Fanin), first[active[id]-1]
					for _, l := range v.Lits {
						src := int32(l.Node)
						if l.Neg {
							src = helper
							helper++
						}
						pin[k] = circuit.NodeID(remap[src])
						k++
					}
				}
			}
			nodes[kept] = circuit.Node{Name: nd.Name, Kind: kind, Fanin: pin}
		}
		remap[id] = int32(kept)
		kept++
	}
	pis := make([]circuit.NodeID, len(master.PIs))
	for i, pi := range master.PIs {
		pis[i] = circuit.NodeID(remap[pi])
	}
	pos := make([]circuit.PO, len(master.POs))
	for i, po := range master.POs {
		pos[i] = circuit.PO{Name: po.Name, Driver: circuit.NodeID(remap[po.Driver])}
	}
	return circuit.Assemble(master.Name, nodes[:kept], pis, pos), nil
}
