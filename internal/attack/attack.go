// Package attack models the adversary of the paper's security analysis
// (§III-E) and the designer-side tracing that defeats it.
//
// Single-copy attacker: owns one fingerprinted instance and no reference;
// package tests show re-running the location analysis on a fingerprinted
// copy yields a self-consistent location set that does not reveal which
// sites carry bits.
//
// Collusion attacker: owns k differently fingerprinted instances, diffs
// their layouts gate by gate, and rewires every differing site to a common
// configuration, hoping to erase the fingerprints. Collude implements this
// attack; Tracer implements the designer's response — any buyer whose
// fingerprint matches the forged copy on all *untouched* slots is
// implicated, and because colluders agree (by construction) on every slot
// they did not detect, all of them always remain implicated ("as long as
// the collusion attacker does not remove all the fingerprint information,
// all the copies that are involved in the collusion can be traced").
package attack

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/logic"
)

// CollusionResult reports a collusion attack's outcome.
type CollusionResult struct {
	// Forged is the attacker's merged instance.
	Forged *circuit.Circuit
	// DetectedGates are names of gates that differed across the copies —
	// the fingerprint sites the attacker found.
	DetectedGates []string
	// SurvivingSlots counts modification slots the attacker did not detect.
	SurvivingSlots int
}

// Signature canonically describes one gate for structural diffing: kind
// plus sorted fanin descriptors. An inverter fanin is described as
// "!<its input>", which makes signatures independent of the (per-copy)
// names of fingerprint helper inverters — an attacker comparing layouts
// sees through a single inverter as easily as we do. Exported for the
// red-team localizer (internal/redteam), which diffs coalition copies with
// exactly the designer's notion of "same gate".
func Signature(c *circuit.Circuit, id circuit.NodeID) string {
	return gateSignature(c, id)
}

func gateSignature(c *circuit.Circuit, id circuit.NodeID) string {
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

// Collude merges k fingerprinted copies: every gate (by name) whose
// signature differs across copies is replaced in the forged instance by its
// configuration with the fewest input pins — the attacker's best guess at
// the unfingerprinted form, since the paper's modifications only ever add
// pins. Copies must share the full name space of copy 0 (they are instances
// of the same layout, per the attack model).
//
// A single copy is the degenerate k=1 "coalition": with nothing to diff
// against, the attacker learns nothing, so the result is a clean clone with
// no detected gates — the single-copy analysis of the package comment
// rather than an error.
func Collude(copies []*circuit.Circuit) (*CollusionResult, error) {
	return ColludePick(copies, func(name string, copies []*circuit.Circuit, ids []circuit.NodeID) int {
		best, bestPins := 0, len(copies[0].Nodes[ids[0]].Fanin)
		for i := 1; i < len(copies); i++ {
			if n := len(copies[i].Nodes[ids[i]].Fanin); n < bestPins {
				best, bestPins = i, n
			}
		}
		return best
	})
}

// PickForm chooses, for one differing gate, which coalition copy's
// configuration the forged instance adopts: it receives the gate name, the
// coalition copies and the gate's node ID in each copy (parallel slices)
// and returns the index of the winning copy. It must be deterministic for
// reproducible attacks.
type PickForm func(name string, copies []*circuit.Circuit, ids []circuit.NodeID) int

// ColludePick is Collude with a caller-supplied merge strategy: the
// red-team coalition engine passes majority-vote or randomized pickers
// where Collude hardwires fewest-pins. A k=1 coalition degrades to a clone
// with no detected gates, exactly as in Collude.
func ColludePick(copies []*circuit.Circuit, pick PickForm) (*CollusionResult, error) {
	if len(copies) == 0 {
		return nil, fmt.Errorf("attack: collusion needs at least 1 copy, got 0")
	}
	base := copies[0]
	res := &CollusionResult{}
	if len(copies) == 1 {
		// k=1: no reference to diff against; the "coalition" owns exactly
		// the information a single buyer has.
		swept, _ := base.Clone().Sweep()
		if err := swept.Validate(); err != nil {
			return nil, fmt.Errorf("attack: copy invalid: %w", err)
		}
		res.Forged = swept
		return res, nil
	}
	detected := map[string]bool{}
	foreign := 0
	for i := range base.Nodes {
		name := base.Nodes[i].Name
		sig0 := gateSignature(base, circuit.NodeID(i))
		for _, other := range copies[1:] {
			id, ok := other.Lookup(name)
			if !ok {
				// Gates present in only some copies are the helper
				// inverters of fingerprint modifications; their consumers'
				// signatures already reveal the difference, so they need
				// no separate record. A copy missing a large share of the
				// layout is not an instance of the same design at all.
				foreign++
				break
			}
			if gateSignature(other, id) != sig0 {
				detected[name] = true
				break
			}
		}
	}
	if foreign > len(base.Nodes)/2 {
		return nil, fmt.Errorf("attack: copies share under half of the layout; not instances of one design")
	}
	// Build the forged instance from the strategy's chosen form per gate.
	forged := base.Clone()
	for name := range detected {
		ids := make([]circuit.NodeID, len(copies))
		for i, cp := range copies {
			ids[i] = cp.MustLookup(name)
		}
		w := pick(name, copies, ids)
		if w < 0 || w >= len(copies) {
			return nil, fmt.Errorf("attack: strategy picked copy %d of %d for %q", w, len(copies), name)
		}
		if err := transplantGate(forged, copies[w], name, ids[w]); err != nil {
			return nil, err
		}
		res.DetectedGates = append(res.DetectedGates, name)
	}
	sort.Strings(res.DetectedGates)
	swept, _ := forged.Sweep()
	if err := swept.Validate(); err != nil {
		return nil, fmt.Errorf("attack: forged netlist invalid: %w", err)
	}
	res.Forged = swept
	return res, nil
}

// transplantGate rewrites gate `name` in dst to match its form in src
// (kind and fanin, resolved by signal name). Helper inverters present in
// src but not in dst are recreated.
func transplantGate(dst, src *circuit.Circuit, name string, srcID circuit.NodeID) error {
	dstID := dst.MustLookup(name)
	srcGate := &src.Nodes[srcID]
	// Detach all current pins of the target... circuit has no pin-clearing
	// primitive, so rebuild via a staged approach: first compute desired
	// fanin as dst node IDs.
	want := make([]circuit.NodeID, 0, len(srcGate.Fanin))
	for _, f := range srcGate.Fanin {
		fn := &src.Nodes[f]
		id, ok := dst.Lookup(fn.Name)
		if !ok {
			// Helper inverter private to src: recreate over its source.
			if !fn.IsPI && len(fn.Fanin) == 1 {
				inner, ok2 := dst.Lookup(src.Nodes[fn.Fanin[0]].Name)
				if !ok2 {
					return fmt.Errorf("attack: cannot resolve signal %q while forging %q", fn.Name, name)
				}
				nid, err := dst.AddGate(dst.FreshName(fn.Name), fn.Kind, inner)
				if err != nil {
					return err
				}
				id = nid
			} else {
				return fmt.Errorf("attack: cannot resolve signal %q while forging %q", fn.Name, name)
			}
		}
		want = append(want, id)
	}
	return dst.RewireGate(dstID, srcGate.Kind, want)
}

// Tracer is the IP designer's registry of issued fingerprints.
type Tracer struct {
	Analysis *core.Analysis
	table    *Table
}

// NewTracer creates a tracer over the analysed original design.
func NewTracer(a *core.Analysis) *Tracer { return &Tracer{Analysis: a, table: NewTable(a)} }

// Register records a buyer's fingerprint. It panics if asg does not have
// one digit per slot of the tracer's design.
func (t *Tracer) Register(name string, asg core.Assignment) {
	if err := t.table.Add(name, asg); err != nil {
		panic(err)
	}
}

// Score is one buyer's agreement with a suspect instance, split into the
// evidence classes that matter under the marking assumption.
type Score struct {
	Name string
	// AgreePresent/TotalPresent count only the slots where the suspect
	// carries a surviving modification. A collusion attacker can strip or
	// rewrite modifications only at sites where the coalition's copies
	// differ — a surviving modification is therefore one the whole
	// coalition shares, so every colluder scores 1.0 here while an
	// innocent buyer matches each slot only by chance. A reset slot is
	// deliberately uninformative: the attacker's "remove the wire"
	// masquerades as a legitimate 0-bit.
	AgreePresent, TotalPresent int
	// AgreeAll/TotalAll count every untampered slot (modified or not);
	// this is the exact-match evidence used for unattacked copies.
	AgreeAll, TotalAll int
}

// Fraction is the marking-assumption score AgreePresent/TotalPresent
// (1.0 when no modification survived — an empty suspect implicates nobody
// and everybody; callers should check TotalPresent).
func (s Score) Fraction() float64 {
	if s.TotalPresent == 0 {
		return 1
	}
	return float64(s.AgreePresent) / float64(s.TotalPresent)
}

// FractionAll is AgreeAll/TotalAll, the agreement over every untampered slot.
func (s Score) FractionAll() float64 {
	if s.TotalAll == 0 {
		return 1
	}
	return float64(s.AgreeAll) / float64(s.TotalAll)
}

// TraceScores extracts whatever fingerprint survives in the suspect and
// scores every registered buyer. Tampered slots are excluded entirely.
func (t *Tracer) TraceScores(suspect *circuit.Circuit) ([]Score, error) {
	got, _, err := core.ExtractTolerant(t.Analysis, suspect)
	if err != nil {
		return nil, err
	}
	return t.scoreObserved(got), nil
}

// scoreObserved builds the sorted per-buyer score table from an already
// extracted (tolerant) assignment; ties keep registration order.
func (t *Tracer) scoreObserved(got core.Assignment) []Score {
	scores := t.table.Scores(got)
	slices.SortStableFunc(scores, byEvidence)
	return scores
}

// Accuse returns the buyers whose marking-assumption score is at least
// `threshold` (e.g. 0.95). Colluders sit at exactly 1.0 — the coalition
// cannot touch the modifications its members share — while innocent buyers
// match each surviving modification only by chance.
func (t *Tracer) Accuse(suspect *circuit.Circuit, threshold float64) ([]string, error) {
	scores, err := t.TraceScores(suspect)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, s := range scores {
		if s.TotalPresent > 0 && s.Fraction() >= threshold {
			names = append(names, s.Name)
		}
	}
	return names, nil
}

// FullRemoval reports whether a scored suspect retains no surviving
// modification at any untampered slot. TotalPresent is a property of the
// suspect alone (it counts slots where the suspect carries a catalogued
// modification, independent of any buyer), so inspecting one score decides
// for all. A full removal means the coalition found and reset every slot
// its members disagreed on AND shared no modification — the one outcome
// the paper's tracing argument concedes ("as long as the collusion
// attacker does not remove all the fingerprint information ..."). Callers
// must report it as a distinct verdict rather than as "matches nobody":
// the evidence channel is empty, not merely inconclusive.
func FullRemoval(scores []Score) bool {
	return len(scores) > 0 && scores[0].TotalPresent == 0
}

// Report is the classified outcome of tracing one suspect copy.
type Report struct {
	// Scores is the per-buyer evidence table, best first (see TraceScores).
	Scores []Score
	// Accused lists buyers at or above the accusation threshold on the
	// marking-assumption score. Empty when FullRemoval is set: with no
	// surviving modification there is no evidence to accuse on.
	Accused []string
	// FullRemoval marks a suspect carrying no surviving modification at
	// all — a fully stripped (or never fingerprinted) copy.
	FullRemoval bool
	// Tampered counts slots excluded as tampered (matching no catalogued
	// form); a high count is itself evidence of a removal attempt.
	Tampered int
}

// Trace scores every registered buyer against the suspect and classifies
// the outcome: threshold accusations under the marking assumption, with
// full removal reported as its own verdict instead of an empty (or, worse,
// all-buyer) accusation list.
func (t *Tracer) Trace(suspect *circuit.Circuit, threshold float64) (*Report, error) {
	got, tampered, err := core.ExtractTolerant(t.Analysis, suspect)
	if err != nil {
		return nil, err
	}
	rep := &Report{Scores: t.scoreObserved(got), Tampered: len(tampered)}
	if FullRemoval(rep.Scores) {
		rep.FullRemoval = true
		return rep, nil
	}
	for _, s := range rep.Scores {
		if s.TotalPresent > 0 && s.Fraction() >= threshold {
			rep.Accused = append(rep.Accused, s.Name)
		}
	}
	return rep, nil
}

// TraceExact returns buyers perfectly consistent with the suspect on every
// untampered slot. For an unattacked (single-buyer piracy) copy this
// pinpoints the source exactly.
func (t *Tracer) TraceExact(suspect *circuit.Circuit) ([]string, error) {
	scores, err := t.TraceScores(suspect)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, s := range scores {
		if s.AgreeAll == s.TotalAll {
			names = append(names, s.Name)
		}
	}
	return names, nil
}
