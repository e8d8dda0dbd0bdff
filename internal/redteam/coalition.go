package redteam

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// CollusionResult reports a collusion attack's outcome.
type CollusionResult struct {
	// Forged is the attacker's merged instance.
	Forged *circuit.Circuit
	// DetectedGates are names of gates that differed across the copies —
	// the fingerprint sites the attacker found.
	DetectedGates []string
}

// Strategy selects how a coalition merges its copies into one forged
// instance. The strategies span the realistic attacker spectrum: FewestPins
// is the paper's §III-E adversary, Majority is the natural "vote out the
// outlier" refinement, and Intersect is the strongest structural attack —
// keep only the pins every copy agrees on, which provably reconstructs the
// base form at every detected site.
type Strategy uint8

const (
	// StrategyFewestPins adopts each differing gate's fewest-pin form — the
	// paper's §III-E collusion attack: modifications only add pins, so
	// fewer pins is the attacker's best single-copy guess at the original.
	StrategyFewestPins Strategy = iota
	// StrategyMajority adopts each differing gate's most common form across
	// the coalition, breaking ties toward fewer pins. With k ≥ 3 this
	// out-votes any modification carried by a minority of the copies.
	StrategyMajority
	// StrategyIntersect rewires each differing gate to the pins present in
	// every copy. Since modifications only add pins, the intersection is
	// exactly the unfingerprinted form of every detected site — on a
	// coalition whose fingerprints disagree everywhere, this is a full
	// removal, the outcome the paper's tracing argument concedes.
	StrategyIntersect
)

// String names the strategy in specs and reports.
func (st Strategy) String() string {
	switch st {
	case StrategyFewestPins:
		return "fewestpins"
	case StrategyMajority:
		return "majority"
	case StrategyIntersect:
		return "intersect"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(st))
}

// ParseStrategy parses a strategy name as produced by String.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "fewestpins":
		return StrategyFewestPins, nil
	case "majority":
		return StrategyMajority, nil
	case "intersect":
		return StrategyIntersect, nil
	}
	return 0, fmt.Errorf("redteam: unknown strategy %q (want fewestpins, majority or intersect)", s)
}

// Strategies returns all coalition strategies, in spec order.
func Strategies() []Strategy {
	return []Strategy{StrategyFewestPins, StrategyMajority, StrategyIntersect}
}

// Coalition merges the copies under the chosen strategy. Copies must share
// copy 0's layout: they are instances of one design, per the attack model.
// A single copy is the degenerate k=1 coalition: with nothing to diff
// against, the attacker learns nothing, so every strategy returns a clean
// clone with no detected gates rather than an error.
func Coalition(copies []*circuit.Circuit, st Strategy) (*CollusionResult, error) {
	if len(copies) == 0 {
		return nil, fmt.Errorf("redteam: collusion needs at least 1 copy, got 0")
	}
	switch st {
	case StrategyFewestPins:
		return colludePick(copies, fewestPins)
	case StrategyMajority:
		return colludePick(copies, majorityPick)
	case StrategyIntersect:
		return colludeIntersect(copies)
	}
	return nil, fmt.Errorf("redteam: unknown strategy %v", st)
}

// signature canonically describes one gate for structural diffing: kind
// plus sorted fanin descriptors. An inverter fanin is described as
// "!<its input>", which makes signatures independent of the (per-copy)
// names of fingerprint helper inverters — an attacker comparing layouts
// sees through a single inverter as easily as the designer does.
func signature(c *circuit.Circuit, id circuit.NodeID) string {
	nd := &c.Nodes[id]
	if nd.IsPI {
		return "PI"
	}
	names := make([]string, 0, len(nd.Fanin))
	for _, f := range nd.Fanin {
		fn := &c.Nodes[f]
		if !fn.IsPI && fn.Kind == logic.Inv {
			names = append(names, "!"+c.Nodes[fn.Fanin[0]].Name)
		} else {
			names = append(names, fn.Name)
		}
	}
	sort.Strings(names)
	sig := nd.Kind.String()
	for _, n := range names {
		sig += "," + n
	}
	return sig
}

// differing diffs a coalition's copies against copies[0] gate by gate, in
// copies[0]'s node order. It returns the sites — gates present in every
// copy whose signature differs across them, with their node ID in each
// copy — and the names, primary inputs included, that every copy carries.
// A node missing from some copy is private helper logic (a fingerprint
// inverter, a decoy tree); its consumers' signatures already expose the
// difference, so it is never a site.
func differing(copies []*circuit.Circuit) ([]site, map[string]bool) {
	base := copies[0]
	shared := make(map[string]bool, len(base.Nodes))
	var sites []site
	ids := make([]circuit.NodeID, len(copies))
nodes:
	for i := range base.Nodes {
		name := base.Nodes[i].Name
		ids[0] = circuit.NodeID(i)
		for c := 1; c < len(copies); c++ {
			id, ok := copies[c].Lookup(name)
			if !ok {
				continue nodes
			}
			ids[c] = id
		}
		shared[name] = true
		if base.Nodes[i].IsPI {
			continue
		}
		sig0 := signature(base, ids[0])
		for c := 1; c < len(copies); c++ {
			if signature(copies[c], ids[c]) != sig0 {
				sites = append(sites, site{name: name, ids: slices.Clone(ids)})
				break
			}
		}
	}
	return sites, shared
}

// pickForm chooses, for one differing gate, which coalition copy's
// configuration the forged instance adopts: it receives the coalition
// copies and the gate's node ID in each (parallel slices) and returns the
// index of the winning copy. It must be deterministic for reproducible
// attacks.
type pickForm func(copies []*circuit.Circuit, ids []circuit.NodeID) int

// fewestPins picks the copy whose form of the gate has the fewest input
// pins, the lowest copy index on ties: the paper's modifications only ever
// add pins, so fewer pins is the attacker's best guess at the
// unfingerprinted form.
func fewestPins(copies []*circuit.Circuit, ids []circuit.NodeID) int {
	best, bestPins := 0, len(copies[0].Nodes[ids[0]].Fanin)
	for i := 1; i < len(copies); i++ {
		if n := len(copies[i].Nodes[ids[i]].Fanin); n < bestPins {
			best, bestPins = i, n
		}
	}
	return best
}

// majorityPick votes by canonical signature; ties break toward fewer pins,
// then the lowest copy index, keeping the merge deterministic.
func majorityPick(copies []*circuit.Circuit, ids []circuit.NodeID) int {
	votes := make(map[string]int, len(copies))
	for i := range copies {
		votes[signature(copies[i], ids[i])]++
	}
	best := 0
	bestVotes := votes[signature(copies[0], ids[0])]
	bestPins := len(copies[0].Nodes[ids[0]].Fanin)
	for i := 1; i < len(copies); i++ {
		v := votes[signature(copies[i], ids[i])]
		pins := len(copies[i].Nodes[ids[i]].Fanin)
		if v > bestVotes || (v == bestVotes && pins < bestPins) {
			best, bestVotes, bestPins = i, v, pins
		}
	}
	return best
}

// errForeign rejects a coalition whose copies are not instances of one
// design.
var errForeign = fmt.Errorf("redteam: copies share under half of the layout; not instances of one design")

// colludePick replaces every differing gate in the forged instance by the
// form pick chooses. A copy missing a large share of copy 0's nodes is not
// an instance of the same design at all. Gates are transplanted in copy
// 0's node order, so the forged netlist — the fresh names of recreated
// helper inverters included — is the same on every run.
func colludePick(copies []*circuit.Circuit, pick pickForm) (*CollusionResult, error) {
	base := copies[0]
	sites, shared := differing(copies)
	if len(base.Nodes)-len(shared) > len(base.Nodes)/2 {
		return nil, errForeign
	}
	forged := base.Clone()
	res := &CollusionResult{}
	for _, st := range sites {
		w := pick(copies, st.ids)
		if w < 0 || w >= len(copies) {
			return nil, fmt.Errorf("redteam: strategy picked copy %d of %d for %q", w, len(copies), st.name)
		}
		if err := transplantGate(forged, copies[w], st.name, st.ids[w]); err != nil {
			return nil, err
		}
		res.DetectedGates = append(res.DetectedGates, st.name)
	}
	sort.Strings(res.DetectedGates)
	return sweepForged(forged, res)
}

// transplantGate rewrites gate `name` in dst to match its form in src
// (kind and fanin, resolved by signal name). Helper inverters present in
// src but not in dst are recreated.
func transplantGate(dst, src *circuit.Circuit, name string, srcID circuit.NodeID) error {
	dstID := dst.MustLookup(name)
	srcGate := &src.Nodes[srcID]
	want := make([]circuit.NodeID, 0, len(srcGate.Fanin))
	for _, f := range srcGate.Fanin {
		fn := &src.Nodes[f]
		id, ok := dst.Lookup(fn.Name)
		if !ok {
			// Helper inverter private to src: recreate over its source.
			if fn.IsPI || len(fn.Fanin) != 1 {
				return fmt.Errorf("redteam: cannot resolve signal %q while forging %q", fn.Name, name)
			}
			inner, ok := dst.Lookup(src.Nodes[fn.Fanin[0]].Name)
			if !ok {
				return fmt.Errorf("redteam: cannot resolve signal %q while forging %q", fn.Name, name)
			}
			nid, err := dst.AddGate(dst.FreshName(fn.Name), fn.Kind, inner)
			if err != nil {
				return err
			}
			id = nid
		}
		want = append(want, id)
	}
	return dst.RewireGate(dstID, srcGate.Kind, want)
}

// colludeIntersect keeps, at every differing gate, only the pins whose
// signal name appears on that gate in all copies. Base-function pins
// survive (no catalogue entry removes or renames a pin), added literals and
// decoy pins are dropped (their helper logic carries per-copy fresh names),
// and a gate reduced to a single pin falls back to its single-input form
// (NAND/NOR→INV, AND/OR→BUF) so ConvertSingle modifications unconvert
// cleanly. Matching is deliberately by name, not by the
// inverter-transparent signature detection uses: a signature mismatch can
// come from the pin's own driver being modified, and dropping such a pin
// would change the function. Unlike colludePick, a primary input missing
// from some copy does not count against the shared layout.
func colludeIntersect(copies []*circuit.Circuit) (*CollusionResult, error) {
	base := copies[0]
	sites, shared := differing(copies)
	foreign := 0
	for i := range base.Nodes {
		if !base.Nodes[i].IsPI && !shared[base.Nodes[i].Name] {
			foreign++
		}
	}
	if foreign > len(base.Nodes)/2 {
		return nil, errForeign
	}
	forged := base.Clone()
	res := &CollusionResult{}
	for _, st := range sites {
		res.DetectedGates = append(res.DetectedGates, st.name)
		nd := &base.Nodes[st.ids[0]]
		// Multiset-intersect copy0's pins with every other copy's.
		counts := make(map[string]int)
		for _, f := range nd.Fanin {
			counts[base.Nodes[f].Name]++
		}
		for c := 1; c < len(copies); c++ {
			other := make(map[string]int)
			for _, f := range copies[c].Nodes[st.ids[c]].Fanin {
				other[copies[c].Nodes[f].Name]++
			}
			for d, n := range counts {
				if other[d] < n {
					counts[d] = other[d]
				}
			}
		}
		keep := make([]circuit.NodeID, 0, len(nd.Fanin))
		for _, f := range nd.Fanin {
			if d := base.Nodes[f].Name; counts[d] > 0 {
				counts[d]--
				keep = append(keep, f)
			}
		}
		if len(keep) == 0 {
			// Nothing survives the intersection — only possible on inputs
			// that are not honest instances of one design; leave copy0's
			// form rather than fabricate a gate with no pins.
			continue
		}
		kind := nd.Kind
		if len(keep) == 1 {
			switch kind {
			case logic.Nand, logic.Nor:
				kind = logic.Inv
			case logic.And, logic.Or:
				kind = logic.Buf
			}
		}
		if err := forged.RewireGate(forged.MustLookup(st.name), kind, keep); err != nil {
			return nil, fmt.Errorf("redteam: intersect at %q: %w", st.name, err)
		}
	}
	return sweepForged(forged, res)
}

// sweepForged drops the logic a merge left dangling and validates the
// forged instance.
func sweepForged(forged *circuit.Circuit, res *CollusionResult) (*CollusionResult, error) {
	swept, _ := forged.Sweep()
	if err := swept.Validate(); err != nil {
		return nil, fmt.Errorf("redteam: forged netlist invalid: %w", err)
	}
	res.Forged = swept
	return res, nil
}
