package core

import (
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/obs"
)

// This file checks an issued copy against the slot model the verifier
// certifies (Slots): a certificate proves every copy the model describes
// equivalent to the master, and conformance proves the netlist at hand is
// one of those copies. It reads the catalogue in Slots order, in place, and
// the circuit API, not the code that builds copies (issue.go) or the
// Working route.

// ErrNonconforming wraps every conformance failure: the copy is not the
// master with exactly the chosen modifications, so no certificate about
// the slot model covers it.
var ErrNonconforming = errors.New("core: copy does not conform to the slot model")

var mConformanceFailures = obs.NewCounter("core", "conformance_failures")

// Conforms checks that cp is the copy choice selects (one variant index
// per slot in Slots order, −1 for unmodified). Node for node, cp must be
// the master with its dead logic dropped, except that each modified slot's
// target gate has its option's kind and, after its own pins, one pin per
// literal: the literal's source, or for a negated literal a helper inverter
// that reads the source and feeds only that target. Nothing else may be
// present. cp must also be well formed: its nodes numbered in a
// topological order, each node's fanouts listed once in ascending order
// and matching the fanins, and every helper indexed under its own name.
//
// Copy nodes are matched to master nodes by name. The check is linear in
// cp and builds no map; a failure wraps ErrNonconforming and counts in
// core.conformance_failures.
func (a *Analysis) Conforms(cp *circuit.Circuit, choice []int) error {
	if err := conforms(a.Circuit, a.Locations, cp, choice); err != nil {
		mConformanceFailures.Inc()
		return fmt.Errorf("%w: %v", ErrNonconforming, err)
	}
	return nil
}

func conforms(master *circuit.Circuit, locs []Location, cp *circuit.Circuit, choice []int) error {
	n, m := len(cp.Nodes), len(master.Nodes)
	slab := make([]int32, 3*n+4*m)
	// toMaster[i] is copy node i's master node + 1, 0 for a node no name
	// or target accounts for yet, and −1 for a claimed helper inverter;
	// fromMaster is its inverse. The target gate of a modified slot has its
	// location + 1 in modLoc, its target index in modTgt and its chosen
	// variant in modVar; modLoc is 0 for every other master node.
	toMaster, uses, drives := slab[:n], slab[n:2*n], slab[2*n:3*n]
	fromMaster, modLoc := slab[3*n:3*n+m], slab[3*n+m:3*n+2*m]
	modTgt, modVar := slab[3*n+2*m:3*n+3*m], slab[3*n+3*m:]
	s := 0 // slots so far, in Slots order
	for i := range locs {
		for j, t := range locs[i].Targets {
			if s < len(choice) {
				d := choice[s]
				if d < -1 || d >= len(t.Variants) {
					return fmt.Errorf("slot %d: option %d out of range", s, d)
				}
				if d >= 0 {
					modLoc[t.Gate], modTgt[t.Gate], modVar[t.Gate] = int32(i)+1, int32(j), int32(d)
				}
			}
			s++
		}
	}
	if s != len(choice) {
		return fmt.Errorf("%d choices for %d slots", len(choice), s)
	}
	for i := range cp.Nodes {
		nd := &cp.Nodes[i]
		for _, f := range nd.Fanin {
			if f < 0 || int(f) >= i {
				return fmt.Errorf("node %q: fanin %d is not an earlier node", nd.Name, f)
			}
			uses[f]++
		}
		id, ok := master.Lookup(nd.Name)
		if !ok {
			continue // a helper inverter, once its target claims it
		}
		if fromMaster[id] != 0 {
			return fmt.Errorf("two nodes are named %q", nd.Name)
		}
		fromMaster[id], toMaster[i] = int32(i)+1, int32(id)+1
		mn := &master.Nodes[id]
		if nd.IsPI != mn.IsPI || (nd.IsPI && len(nd.Fanin) != 0) {
			return fmt.Errorf("node %q: primary input %v with %d pins, master %v", nd.Name, nd.IsPI, len(nd.Fanin), mn.IsPI)
		}
		if nd.IsPI {
			continue
		}
		kind, lits := mn.Kind, []Lit(nil)
		if li := modLoc[id]; li != 0 {
			v := &locs[li-1].Targets[modTgt[id]].Variants[modVar[id]]
			kind, lits = v.NewGateKind, v.Lits
		}
		w := len(mn.Fanin)
		if nd.Kind != kind || len(nd.Fanin) != w+len(lits) {
			return fmt.Errorf("node %q: %v with %d pins, want %v with %d", nd.Name, nd.Kind, len(nd.Fanin), kind, w+len(lits))
		}
		for j, f := range mn.Fanin {
			if toMaster[nd.Fanin[j]] != int32(f)+1 {
				return fmt.Errorf("node %q: pin %d reads %q, want %q", nd.Name, j, cp.Nodes[nd.Fanin[j]].Name, master.Nodes[f].Name)
			}
		}
		for k, l := range lits {
			p := nd.Fanin[w+k]
			for _, q := range nd.Fanin[:w+k] {
				if q == p {
					return fmt.Errorf("node %q: pin %d repeats %q", nd.Name, w+k, cp.Nodes[p].Name)
				}
			}
			if !l.Neg {
				if toMaster[p] != int32(l.Node)+1 {
					return fmt.Errorf("node %q: pin %d reads %q, want %q", nd.Name, w+k, cp.Nodes[p].Name, master.Nodes[l.Node].Name)
				}
				continue
			}
			h := &cp.Nodes[p]
			if toMaster[p] != 0 {
				return fmt.Errorf("node %q: pin %d reads %q, want a helper inverter of %q", nd.Name, w+k, h.Name, master.Nodes[l.Node].Name)
			}
			if h.IsPI || h.Kind != logic.Inv || len(h.Fanin) != 1 || toMaster[h.Fanin[0]] != int32(l.Node)+1 {
				return fmt.Errorf("helper %q of node %q does not invert %q", h.Name, nd.Name, master.Nodes[l.Node].Name)
			}
			if fo := h.Fanout(); len(fo) != 1 || fo[0] != circuit.NodeID(i) {
				return fmt.Errorf("helper %q feeds %d gates, want only %q", h.Name, len(fo), nd.Name)
			}
			if got, ok := cp.Lookup(h.Name); !ok || got != p {
				return fmt.Errorf("helper %q is not indexed under its name", h.Name)
			}
			toMaster[p] = -1
		}
	}

	if len(cp.PIs) != len(master.PIs) || len(cp.POs) != len(master.POs) {
		return fmt.Errorf("%d inputs and %d outputs, want %d and %d", len(cp.PIs), len(cp.POs), len(master.PIs), len(master.POs))
	}
	for k, pi := range cp.PIs {
		if pi < 0 || int(pi) >= n || toMaster[pi] != int32(master.PIs[k])+1 {
			return fmt.Errorf("input %d is not %q", k, master.Nodes[master.PIs[k]].Name)
		}
	}
	for k, po := range cp.POs {
		want := master.POs[k]
		if po.Name != want.Name || po.Driver < 0 || int(po.Driver) >= n || toMaster[po.Driver] != int32(want.Driver)+1 {
			return fmt.Errorf("output %d is not %q driven by %q", k, want.Name, master.Nodes[want.Driver].Name)
		}
		drives[po.Driver] = 1
	}

	for i := range cp.Nodes {
		nd := &cp.Nodes[i]
		if toMaster[i] == 0 {
			return fmt.Errorf("node %q is neither a master node nor a helper of a chosen option", nd.Name)
		}
		fo := nd.Fanout()
		if int32(len(fo)) != uses[i] {
			return fmt.Errorf("node %q: %d fanouts for %d fanin edges", nd.Name, len(fo), uses[i])
		}
		if len(fo) == 0 && !nd.IsPI && drives[i] == 0 {
			return fmt.Errorf("node %q reaches no output", nd.Name)
		}
		for k, s := range fo {
			if int(s) <= i || int(s) >= n || (k > 0 && s <= fo[k-1]) {
				return fmt.Errorf("node %q: fanout list out of order or range at %d", nd.Name, s)
			}
			if !reads(cp.Nodes[s].Fanin, circuit.NodeID(i)) {
				return fmt.Errorf("node %q lists %q as a fanout, which does not read it", nd.Name, cp.Nodes[s].Name)
			}
		}
	}
	return nil
}

// reads reports whether fanin lists id.
func reads(fanin []circuit.NodeID, id circuit.NodeID) bool {
	for _, f := range fanin {
		if f == id {
			return true
		}
	}
	return false
}
