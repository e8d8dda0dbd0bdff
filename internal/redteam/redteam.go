// Package redteam attacks the fingerprinting scheme from the designer's own
// side of the table and quantifies how much of an embedded fingerprint a
// realistic adversary recovers.
//
// The attacker model extends the paper's §III-E collusion adversary
// (Coalition) with a SAT engine. Given k ≥ 1 differently fingerprinted
// copies of one design, the attack runs three phases:
//
//  1. Localization. Gates present in every copy whose canonical signature
//     differs across copies are candidate fingerprint sites; the
//     hypothesized unfingerprinted "base form" of each site is its
//     fewest-pin configuration, because the paper's modifications only
//     ever add pins.
//  2. Distinguishing-input (DIP) loop. The classic SAT attack on logic
//     locking, transplanted to fingerprinting: one key input per candidate
//     site switches that site between its fingerprinted and base forms, two
//     key-differentiated copies of the keyed circuit are joined by an
//     output-XOR miter plus a key-inequality constraint, and every SAT
//     model is a distinguishing input that the attacker replays against a
//     working copy to prune key space. Because the paper's ODC
//     modifications are function-preserving for every key value, the very
//     first call is UNSAT — the loop terminates with zero DIPs and the
//     report carries an IOIndistinguishable certificate, which is exactly
//     the paper's security claim stated as a SAT proof.
//  3. Strip proofs. I/O behaviour reveals nothing, so the attacker falls
//     back on structure: site by site it rewires its copy to the base form
//     and asks the equivalence checker (internal/cec) to prove the rewrite
//     safe, charging every SAT conflict against a finite budget. A proof
//     that completes strips the site from the forged copy; an exhausted
//     budget leaves the site in place, since shipping an unproved rewrite
//     risks a broken product.
//
// The Harden knob (core.InsertDecoys) is the designer's counter: decoy
// sites whose strip proofs are CDCL-hostile parity instances drain the
// phase-3 budget before the true sites are resolved. Evaluate reduces an
// attack to the metric that matters — fingerprint bits recovered versus
// fingerprint bits embedded.
package redteam

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cec"
	"repro/internal/circuit"
	"repro/internal/core"
)

// AttackOptions tunes the three attack phases.
type AttackOptions struct {
	// DIPBudget bounds total SAT conflicts in the DIP loop (≤0: unlimited).
	DIPBudget int64
	// MaxDIPs caps DIP iterations (0: default 64; <0: skip the DIP phase).
	MaxDIPs int
	// SiteBudget bounds SAT conflicts per strip proof (≤0: unlimited).
	SiteBudget int64
	// TotalBudget bounds SAT conflicts across all strip proofs (≤0:
	// unlimited). This is the attacker's overall computing allowance; decoy
	// hardening works by draining it.
	TotalBudget int64
	// SimWords sizes the equivalence checker's random-simulation pre-pass
	// (0: default 4 — strips of correct hypotheses are never refuted by
	// simulation, so a large pre-pass is wasted work).
	SimWords int
	// Seed drives the attacker's site-processing order and the checker's
	// simulation patterns.
	Seed int64
}

func (o AttackOptions) withDefaults() AttackOptions {
	if o.MaxDIPs == 0 {
		o.MaxDIPs = 64
	}
	if o.SimWords == 0 {
		o.SimWords = 4
	}
	return o
}

// SiteStatus classifies the outcome of one candidate site's strip proof.
type SiteStatus uint8

const (
	// SiteBase: the attacked copy already carries the hypothesized base
	// form; there is nothing to strip and no proof to pay for.
	SiteBase SiteStatus = iota
	// SiteStripped: the strip proof completed and the forged copy adopts
	// the base form.
	SiteStripped
	// SiteKept: the proof refuted the hypothesis — rewiring would change
	// the function — so the site stays as issued.
	SiteKept
	// SiteUnresolved: the conflict budget ran out before a verdict; the
	// attacker cannot safely strip the site.
	SiteUnresolved
)

// String names the status for reports.
func (s SiteStatus) String() string {
	switch s {
	case SiteBase:
		return "base"
	case SiteStripped:
		return "stripped"
	case SiteKept:
		return "kept"
	case SiteUnresolved:
		return "unresolved"
	}
	return fmt.Sprintf("SiteStatus(%d)", uint8(s))
}

// SiteResult reports one candidate site's attack outcome.
type SiteResult struct {
	// Gate is the site's gate name (shared across all copies).
	Gate string
	// Status is the strip-proof outcome.
	Status SiteStatus
	// Conflicts is the SAT effort this site's proof consumed.
	Conflicts int64
	// ExtraPins counts input pins the attacked copy carries beyond the
	// hypothesized base form.
	ExtraPins int
}

// AttackReport is the full outcome of one red-team attack.
type AttackReport struct {
	// Candidates lists the localized candidate sites in the order the
	// attacker processed them.
	Candidates []string
	// KeyBits is the number of key inputs in the DIP miter — candidate
	// sites where the attacked copy differs from its base form.
	KeyBits int
	// DIPs counts distinguishing inputs found. Zero with
	// IOIndistinguishable set is the expected outcome against ODC
	// fingerprints: no input/output experiment separates configurations.
	DIPs int
	// DIPConflicts is the SAT effort the DIP loop consumed.
	DIPConflicts int64
	// IOIndistinguishable is set when the DIP loop proved UNSAT: no input
	// distinguishes any two key settings, certifying the scheme's
	// function-preservation claim on this instance.
	IOIndistinguishable bool
	// DIPBudgetExhausted is set when the loop stopped on budget or the
	// MaxDIPs cap instead of a verdict.
	DIPBudgetExhausted bool
	// Sites holds per-site strip results, in processing order.
	Sites []SiteResult
	// StripConflicts is the SAT effort of all strip proofs combined.
	StripConflicts int64
	// BudgetExhausted is set when TotalBudget ran dry with sites pending.
	BudgetExhausted bool
	// Forged is the attacker's final merged copy with every stripped site
	// rewired to base form (dangling logic swept).
	Forged *circuit.Circuit
	// Elapsed is the wall-clock duration of the whole attack.
	Elapsed time.Duration
}

// site is one localized candidate during the attack.
type site struct {
	name string
	ids  []circuit.NodeID // per copy, parallel to the copies slice
	base int              // copy index holding the fewest-pin (base) form
}

// Attack runs the full red-team pipeline against the attacker's own copies.
// copies[0] is the copy being cleaned; the rest are coalition references.
// A single copy is legal and degenerates to zero candidates — structure
// alone reveals nothing, matching Coalition's k=1 semantics.
func Attack(copies []*circuit.Circuit, opts AttackOptions) (*AttackReport, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if len(copies) == 0 {
		return nil, fmt.Errorf("redteam: attack needs at least 1 copy, got 0")
	}
	sites, shared := differing(copies)
	for i := range sites {
		sites[i].base = fewestPins(copies, sites[i].ids)
	}
	// Process in a seed-driven order: the attacker has no way to tell true
	// sites from decoys up front, so its budget meets them interleaved.
	sort.Slice(sites, func(i, j int) bool { return sites[i].name < sites[j].name })
	rng := rand.New(rand.NewSource(opts.Seed))
	rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })

	rep := &AttackReport{}
	for _, st := range sites {
		rep.Candidates = append(rep.Candidates, st.name)
	}
	if opts.MaxDIPs > 0 {
		if err := runDIP(copies, sites, opts, rep); err != nil {
			return nil, err
		}
	}
	if err := runStrips(copies, sites, shared, opts, rep); err != nil {
		return nil, err
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// runStrips executes phase 3: per-site budgeted strip proofs building the
// forged copy incrementally.
func runStrips(copies []*circuit.Circuit, sites []site, shared map[string]bool, opts AttackOptions, rep *AttackReport) error {
	ctx := context.Background()
	forged := copies[0].Clone()
	remaining := opts.TotalBudget
	for _, st := range sites {
		res := SiteResult{Gate: st.name}
		from := copies[st.base]
		res.ExtraPins = len(copies[0].Nodes[st.ids[0]].Fanin) - len(from.Nodes[st.ids[st.base]].Fanin)
		if signature(copies[0], st.ids[0]) == signature(from, st.ids[st.base]) {
			// The attacked copy already carries the fewest-pin form; other
			// copies hold the modifications here.
			rep.Sites = append(rep.Sites, res)
			continue
		}
		if opts.TotalBudget > 0 && remaining <= 0 {
			res.Status = SiteUnresolved
			rep.BudgetExhausted = true
			rep.Sites = append(rep.Sites, res)
			continue
		}
		trial := forged.Clone()
		if err := transplant(trial, from, st.ids[st.base], trial.MustLookup(st.name), shared); err != nil {
			return err
		}
		budget := opts.SiteBudget
		if opts.TotalBudget > 0 && (budget <= 0 || remaining < budget) {
			budget = remaining
		}
		v, err := cec.CheckCtx(ctx, trial, forged, cec.Options{
			SimWords:     opts.SimWords,
			Seed:         opts.Seed,
			MaxConflicts: budget,
		})
		res.Conflicts = v.Conflicts
		rep.StripConflicts += v.Conflicts
		if opts.TotalBudget > 0 {
			remaining -= v.Conflicts
		}
		switch {
		case err == nil && v.Equivalent:
			res.Status = SiteStripped
			forged = trial
		case err == nil:
			res.Status = SiteKept
		case errors.Is(err, cec.ErrBudgetExhausted):
			res.Status = SiteUnresolved
			if opts.TotalBudget > 0 && remaining <= 0 {
				rep.BudgetExhausted = true
			}
		default:
			return fmt.Errorf("redteam: strip proof for %q: %w", st.name, err)
		}
		rep.Sites = append(rep.Sites, res)
	}
	swept, _ := forged.Sweep()
	if err := swept.Validate(); err != nil {
		return fmt.Errorf("redteam: forged copy invalid: %w", err)
	}
	rep.Forged = swept
	return nil
}

// transplant rewires gate dstID in dst to match srcID's form in src. Fanin
// signals in the shared layout are resolved by name; src-private logic
// (fingerprint helper inverters, decoy trees) is recreated recursively —
// name lookup alone would be unsound there, since FreshName can mint the
// same private name for different logic in different copies.
func transplant(dst, src *circuit.Circuit, srcID, dstID circuit.NodeID, shared map[string]bool) error {
	g := &src.Nodes[srcID]
	want := make([]circuit.NodeID, len(g.Fanin))
	for i, f := range g.Fanin {
		id, err := resolveSignal(dst, src, f, shared)
		if err != nil {
			return fmt.Errorf("redteam: forging %q: %w", g.Name, err)
		}
		want[i] = id
	}
	return dst.RewireGate(dstID, g.Kind, want)
}

// resolveSignal maps a src node to a dst node, recreating src-private logic.
func resolveSignal(dst, src *circuit.Circuit, f circuit.NodeID, shared map[string]bool) (circuit.NodeID, error) {
	fn := &src.Nodes[f]
	if fn.IsPI || shared[fn.Name] {
		id, ok := dst.Lookup(fn.Name)
		if !ok {
			return circuit.None, fmt.Errorf("shared signal %q missing", fn.Name)
		}
		return id, nil
	}
	in := make([]circuit.NodeID, len(fn.Fanin))
	for i, ff := range fn.Fanin {
		id, err := resolveSignal(dst, src, ff, shared)
		if err != nil {
			return circuit.None, err
		}
		in[i] = id
	}
	return dst.AddGate(dst.FreshName(fn.Name), fn.Kind, in...)
}

// Evaluation reduces an attack report to the fingerprint-recovery metric.
type Evaluation struct {
	// FingerprintBits is the number of modifications embedded in the
	// attacked copy (the fingerprint size in bits).
	FingerprintBits int
	// TrueSites are the gate names carrying those modifications.
	TrueSites []string
	// BitsRecovered counts true sites the attacker stripped — fingerprint
	// bits it located AND safely removed.
	BitsRecovered int
	// FalseStrips are stripped sites that carry no fingerprint bit in the
	// attacked copy (decoys, or sites modified only in other copies).
	FalseStrips []string
	// Unresolved counts sites abandoned on budget.
	Unresolved int
	// Subset is true when every stripped site is a true site — the
	// soundness property of the unhardened attack.
	Subset bool
}

// Evaluate scores an attack report against the ground-truth assignment
// embedded in the attacked copy (copies[0] of the Attack call). Only the
// designer can compute this; the attacker sees SiteResults alone.
func Evaluate(a *core.Analysis, asg core.Assignment, rep *AttackReport) *Evaluation {
	truth := make(map[string]bool)
	ev := &Evaluation{}
	for i := range a.Locations {
		for j := range a.Locations[i].Targets {
			if asg[i][j] >= 0 {
				name := a.Circuit.Nodes[a.Locations[i].Targets[j].Gate].Name
				if !truth[name] {
					truth[name] = true
					ev.TrueSites = append(ev.TrueSites, name)
				}
			}
		}
	}
	sort.Strings(ev.TrueSites)
	ev.FingerprintBits = len(ev.TrueSites)
	ev.Subset = true
	for _, s := range rep.Sites {
		switch s.Status {
		case SiteStripped:
			if truth[s.Gate] {
				ev.BitsRecovered++
			} else {
				ev.FalseStrips = append(ev.FalseStrips, s.Gate)
				ev.Subset = false
			}
		case SiteUnresolved:
			ev.Unresolved++
		}
	}
	sort.Strings(ev.FalseStrips)
	return ev
}
