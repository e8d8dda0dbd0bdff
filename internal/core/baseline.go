package core

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/odc"
)

// This file preserves the pre-packing analysis path verbatim: the map-based
// structural validation and the primary-gate scan that called
// Circuit.FanoutCount / Circuit.FFC per candidate. It exists for two
// purposes: cmd/benchanalyze measures the packed scan's speedup against this
// exact implementation (so the baseline never silently inherits new
// optimisations), and TestAnalyzeMatchesBaseline uses it as the oracle
// proving the packed scan reproduces identical locations.

// AnalyzeBaseline runs the retained pre-packing implementation of Analyze.
// Results are equal to Analyze (same locations, targets, variants, in the
// same order). It is kept only as the measurement baseline and test oracle
// described above.
func AnalyzeBaseline(c *circuit.Circuit, opts Options) (*Analysis, error) {
	if opts.Library == nil {
		return nil, fmt.Errorf("core: Options.Library is required")
	}
	if err := baselineValidate(c); err != nil {
		return nil, fmt.Errorf("core: invalid circuit: %w", err)
	}
	a := &Analysis{Circuit: c, Options: opts, levels: c.Levels()}
	claimed := make([]bool, len(c.Nodes)) // target gates already owned by a location

	for _, p := range c.MustTopoOrder() {
		nd := &c.Nodes[p]
		if nd.IsPI {
			continue
		}
		if !odc.HasLocalODC(nd.Kind, len(nd.Fanin)) {
			continue
		}
		loc, ok := a.baselineLocationAt(p, claimed)
		if !ok {
			continue
		}
		for _, t := range loc.Targets {
			claimed[t.Gate] = true
		}
		a.Locations = append(a.Locations, loc)
	}
	return a, nil
}

// baselineLocationAt is the pre-packing locationAt: per-call PO-list scans
// through Circuit.FanoutCount and a map-backed Circuit.FFC.
func (a *Analysis) baselineLocationAt(p circuit.NodeID, claimed []bool) (Location, bool) {
	c := a.Circuit
	nd := &c.Nodes[p]
	cv, _ := nd.Kind.ControllingValue()

	yPin := -1
	for i, f := range nd.Fanin {
		fn := &c.Nodes[f]
		if fn.IsPI {
			continue
		}
		if fn.Kind == logic.Const0 || fn.Kind == logic.Const1 {
			continue
		}
		if c.FanoutCount(f) != 1 {
			continue
		}
		if yPin < 0 || a.levels[f] > a.levels[nd.Fanin[yPin]] {
			yPin = i
		}
	}
	if yPin < 0 {
		return Location{}, false
	}
	y := nd.Fanin[yPin]

	xPin := -1
	for i, f := range nd.Fanin {
		if i == yPin {
			continue
		}
		if xPin < 0 {
			xPin = i
			continue
		}
		cur := a.levels[nd.Fanin[xPin]]
		switch a.Options.Trigger {
		case DeepestTrigger:
			if a.levels[f] > cur {
				xPin = i
			}
		default:
			if a.levels[f] < cur {
				xPin = i
			}
		}
	}
	if xPin < 0 {
		return Location{}, false
	}
	x := nd.Fanin[xPin]

	cone := c.FFC(y)
	loc := Location{
		Primary:      p,
		FFCRoot:      y,
		FFCPin:       yPin,
		Trigger:      x,
		TriggerPin:   xPin,
		TriggerValue: cv,
		Cone:         cone,
	}

	for _, g := range cone {
		if claimed[g] {
			continue
		}
		gd := &c.Nodes[g]
		if !gd.Kind.FingerprintTarget(false) {
			continue
		}
		if gd.Kind.SingleInput() && !a.Options.AllowConvert {
			continue
		}
		variants := a.baselineVariantsFor(loc, g)
		if len(variants) == 0 {
			continue
		}
		loc.Targets = append(loc.Targets, Target{Gate: g, Variants: variants})
	}
	if len(loc.Targets) == 0 {
		return Location{}, false
	}
	sort.SliceStable(loc.Targets, func(i, j int) bool {
		return a.levels[loc.Targets[i].Gate] > a.levels[loc.Targets[j].Gate]
	})
	if m := a.Options.MaxTargetsPerLocation; m > 0 && len(loc.Targets) > m {
		loc.Targets = loc.Targets[:m]
	}
	return loc, true
}

// baselineVariantsFor is the pre-packing variantsFor with the per-variant
// map-based duplicate-pin check.
func (a *Analysis) baselineVariantsFor(loc Location, g circuit.NodeID) []Variant {
	c := a.Circuit
	lib := a.Options.Library
	gd := &c.Nodes[g]
	cv := loc.TriggerValue
	nonTrigger := !cv

	var out []Variant
	addIfFeasible := func(v Variant) {
		newFanin := len(gd.Fanin) + len(v.Lits)
		if !lib.Has(v.NewGateKind, newFanin) {
			return
		}
		seen := make(map[circuit.NodeID]bool, len(gd.Fanin))
		for _, f := range gd.Fanin {
			seen[f] = true
		}
		for _, l := range v.Lits {
			if l.Neg {
				continue
			}
			if seen[l.Node] {
				return
			}
			seen[l.Node] = true
		}
		for _, l := range v.Lits {
			if l.Node == g {
				return
			}
		}
		out = append(out, v)
	}

	switch {
	case gd.Kind.HasControllingValue():
		id, _ := gd.Kind.IdentityValue()
		addIfFeasible(Variant{
			Kind:        AddLiteral,
			NewGateKind: gd.Kind,
			Lits:        []Lit{{Node: loc.Trigger, Neg: litNeg(nonTrigger, id)}},
		})
		if a.Options.AllowReroute {
			for _, v := range a.baselineRerouteVariants(loc, gd.Kind, id) {
				addIfFeasible(v)
			}
		}
	case gd.Kind == logic.Inv:
		addIfFeasible(Variant{
			Kind:        ConvertSingle,
			NewGateKind: logic.Nand,
			Lits:        []Lit{{Node: loc.Trigger, Neg: litNeg(nonTrigger, true)}},
		})
		addIfFeasible(Variant{
			Kind:        ConvertSingle,
			NewGateKind: logic.Nor,
			Lits:        []Lit{{Node: loc.Trigger, Neg: litNeg(nonTrigger, false)}},
		})
	case gd.Kind == logic.Buf:
		addIfFeasible(Variant{
			Kind:        ConvertSingle,
			NewGateKind: logic.And,
			Lits:        []Lit{{Node: loc.Trigger, Neg: litNeg(nonTrigger, true)}},
		})
		addIfFeasible(Variant{
			Kind:        ConvertSingle,
			NewGateKind: logic.Or,
			Lits:        []Lit{{Node: loc.Trigger, Neg: litNeg(nonTrigger, false)}},
		})
	}
	return out
}

// baselineRerouteVariants is rerouteVariants without the scan buffers:
// every variant's literal slice is an individual allocation.
func (a *Analysis) baselineRerouteVariants(loc Location, targetKind logic.Kind, targetIdentity bool) []Variant {
	c := a.Circuit
	t := loc.Trigger
	tn := &c.Nodes[t]
	if tn.IsPI || !tn.Kind.HasControllingValue() {
		return nil
	}
	nonTrigger := !loc.TriggerValue
	var forcedInput, forcingOutput bool
	switch tn.Kind {
	case logic.And:
		forcingOutput, forcedInput = true, true
	case logic.Nand:
		forcingOutput, forcedInput = false, true
	case logic.Or:
		forcingOutput, forcedInput = false, false
	case logic.Nor:
		forcingOutput, forcedInput = true, false
	}
	if forcingOutput != nonTrigger {
		return nil
	}
	neg := litNeg(forcedInput, targetIdentity)
	ins := tn.Fanin
	var out []Variant
	for i, u := range ins {
		out = append(out, Variant{
			Kind:        Reroute,
			NewGateKind: targetKind,
			Lits:        []Lit{{Node: u, Neg: neg}},
		})
		for _, w := range ins[i+1:] {
			if w == u {
				continue
			}
			out = append(out, Variant{
				Kind:        Reroute,
				NewGateKind: targetKind,
				Lits:        []Lit{{Node: u, Neg: neg}, {Node: w, Neg: neg}},
			})
		}
	}
	return out
}

// baselineValidate reproduces the pre-memoization circuit.Validate work over
// the exported API: fresh name map, per-gate duplicate-fanin maps, and the
// edge-multiset comparison through two map[edge]int — the checks a cold
// analysis used to pay on every call.
func baselineValidate(c *circuit.Circuit) error {
	if len(c.PIs) == 0 {
		return fmt.Errorf("circuit %s: no primary inputs", c.Name)
	}
	if len(c.POs) == 0 {
		return fmt.Errorf("circuit %s: no primary outputs", c.Name)
	}
	names := make(map[string]circuit.NodeID, len(c.Nodes))
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if nd.Name == "" {
			return fmt.Errorf("circuit %s: node %d has empty name", c.Name, i)
		}
		if prev, dup := names[nd.Name]; dup {
			return fmt.Errorf("circuit %s: nodes %d and %d share name %q", c.Name, prev, i, nd.Name)
		}
		names[nd.Name] = circuit.NodeID(i)
		if got, ok := c.Lookup(nd.Name); !ok || got != circuit.NodeID(i) {
			return fmt.Errorf("circuit %s: name index stale for %q", c.Name, nd.Name)
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
		if min := nd.Kind.MinFanin(); len(nd.Fanin) < min || (nd.Kind.FixedFanin() && len(nd.Fanin) != min) {
			return fmt.Errorf("circuit %s: gate %q: bad arity %d", c.Name, nd.Name, len(nd.Fanin))
		}
		seen := make(map[circuit.NodeID]bool, len(nd.Fanin))
		for _, f := range nd.Fanin {
			if f < 0 || int(f) >= len(c.Nodes) {
				return fmt.Errorf("circuit %s: gate %q: fanin %d out of range", c.Name, nd.Name, f)
			}
			if seen[f] {
				return fmt.Errorf("circuit %s: gate %q: duplicate fanin %q", c.Name, nd.Name, c.Nodes[f].Name)
			}
			seen[f] = true
		}
	}
	for _, pi := range c.PIs {
		if pi < 0 || int(pi) >= len(c.Nodes) || !c.Nodes[pi].IsPI {
			return fmt.Errorf("circuit %s: PI list entry %d is not a PI node", c.Name, pi)
		}
	}
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
	type edge struct{ src, sink circuit.NodeID }
	faninEdges := make(map[edge]int)
	for i := range c.Nodes {
		for _, f := range c.Nodes[i].Fanin {
			faninEdges[edge{f, circuit.NodeID(i)}]++
		}
	}
	fanoutEdges := make(map[edge]int)
	for i := range c.Nodes {
		for _, s := range c.Nodes[i].Fanout() {
			fanoutEdges[edge{circuit.NodeID(i), s}]++
		}
	}
	if len(faninEdges) != len(fanoutEdges) {
		return fmt.Errorf("circuit %s: fanout bookkeeping inconsistent (%d fanin edges, %d fanout edges)", c.Name, len(faninEdges), len(fanoutEdges))
	}
	for e, n := range faninEdges {
		if fanoutEdges[e] != n {
			return fmt.Errorf("circuit %s: edge %q->%q count mismatch (fanin %d, fanout %d)",
				c.Name, c.Nodes[e.src].Name, c.Nodes[e.sink].Name, n, fanoutEdges[e])
		}
	}
	if _, err := c.TopoOrder(); err != nil {
		return err
	}
	return nil
}
