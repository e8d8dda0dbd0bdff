package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cec"
	"repro/internal/circuit"
)

// This file bridges the analysis catalogue to the verification engines in
// internal/cec: window certificates (cec.Certifier) prove the whole
// catalogue once per Analysis, location window by location window, and a
// persistent cec.Session is the fallback when a window does not certify.

// Slots flattens the catalogue into the cec slots the verifier proves, one
// per (location, target) pair in deterministic location-major order — the
// same order used by SlotChoice. Together they let a caller drive a
// cec.Session directly, as the session benchmarks do.
func (a *Analysis) Slots() []cec.Slot {
	var slots []cec.Slot
	for i := range a.Locations {
		for j := range a.Locations[i].Targets {
			tgt := &a.Locations[i].Targets[j]
			slot := cec.Slot{Gate: tgt.Gate, Options: make([]cec.Mod, len(tgt.Variants))}
			for v, variant := range tgt.Variants {
				// cec only reads Lits, so the slot shares the catalogue's.
				slot.Options[v] = cec.Mod{Kind: variant.NewGateKind, Lits: variant.Lits}
			}
			slots = append(slots, slot)
		}
	}
	return slots
}

// SlotChoice flattens an Assignment into the session's choice vector in the
// same slot order as Slots. Tampered entries are rejected: a session can
// only express catalogued modifications.
func (a *Analysis) SlotChoice(asg Assignment) ([]int, error) {
	if len(asg) != len(a.Locations) {
		return nil, fmt.Errorf("core: assignment has %d locations, analysis %d", len(asg), len(a.Locations))
	}
	choice := make([]int, 0, a.TotalTargets())
	for i := range asg {
		if len(asg[i]) != len(a.Locations[i].Targets) {
			return nil, fmt.Errorf("core: assignment loc %d has %d targets, analysis %d", i, len(asg[i]), len(a.Locations[i].Targets))
		}
		for j, v := range asg[i] {
			if v < -1 || v >= len(a.Locations[i].Targets[j].Variants) {
				return nil, fmt.Errorf("core: assignment loc %d target %d: variant %d out of range", i, j, v)
			}
			choice = append(choice, v)
		}
	}
	return choice, nil
}

// locationWindows gives each location its certificate window: the primary
// gate P, the location's cone and, when some variant is a Fig. 5 reroute,
// the trigger's driver T, whose inputs the reroute literals read. The paper's
// safety argument (mods.go) is local to exactly these gates: a cone change
// is the identity whenever the trigger lets it through P.
func locationWindows(a *Analysis) [][]circuit.NodeID {
	windows := make([][]circuit.NodeID, len(a.Locations))
	for i := range a.Locations {
		loc := &a.Locations[i]
		w := append(make([]circuit.NodeID, 0, len(loc.Cone)+2), loc.Primary)
		w = append(w, loc.Cone...)
		if hasReroute(loc) {
			w = append(w, loc.Trigger)
		}
		windows[i] = w
	}
	return windows
}

func hasReroute(loc *Location) bool {
	for _, t := range loc.Targets {
		for _, v := range t.Variants {
			if v.Kind == Reroute {
				return true
			}
		}
	}
	return false
}

// Verifier proves fingerprint copies equivalent to the master. Its first
// Verify certifies the catalogue window by window (cec.Certifier, one small
// SAT query per composed window); once every window is proved, every
// catalogued copy is equivalent and Verify answers without a solver. If a
// window fails — certificates over-approximate, so this does not mean a copy
// is inequivalent — the verifier falls back to the persistent incremental
// session (one encoding, cheap per-copy assumption solves, shared learned
// clauses), and to one-shot cec.Check on a materialized instance when the
// session cannot express the catalogue (e.g. a modification literal would
// close a combinational cycle in the union graph).
type Verifier struct {
	a  *Analysis
	mu sync.Mutex
	// cert holds the window certificates; nil once a window failed or when
	// the catalogue cannot be certified at all.
	cert *cec.Certifier
	// sess is the fallback session, built when cert is dropped; nil then
	// means one-shot checks.
	sess *cec.Session
}

// NewVerifier builds a verifier for a. It composes the certificate windows
// but runs no SAT query: proofs happen lazily, on the first Verify. A
// catalogue the certifier refuses goes straight to the session path, and
// session construction failures are not fatal either — the verifier
// silently degrades to the one-shot path.
func NewVerifier(a *Analysis) *Verifier {
	v := &Verifier{a: a}
	cert, err := cec.NewCertifier(a.Circuit, a.Slots(), locationWindows(a), cec.DefaultOptions())
	if err == nil {
		v.cert = cert
	} else {
		v.fallBack()
	}
	return v
}

// fallBack builds the session exactly as a verifier without certificates
// would.
func (v *Verifier) fallBack() {
	v.cert = nil
	if sess, err := cec.NewSession(v.a.Circuit, v.a.Slots(), cec.DefaultOptions()); err == nil {
		v.sess = sess
	}
}

// Certified reports whether every certificate window has been proved, so
// that Verify answers every catalogued copy without a solver.
func (v *Verifier) Certified() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.cert == nil {
		return false
	}
	st := v.cert.Stats()
	return st.Proved == st.Windows
}

// Verify proves or refutes that the copy selected by asg is equivalent to
// the master. Assignments containing Tampered entries cannot be verified
// at assignment level; materialize the suspect netlist and use cec.Check.
func (v *Verifier) Verify(asg Assignment) (cec.Verdict, error) {
	return v.VerifyCtx(context.Background(), asg)
}

// VerifyCtx is Verify with cooperative cancellation: when ctx is done the
// underlying SAT search stops at its next poll and the context error is
// returned. The verifier stays usable afterwards: windows whose proof was
// interrupted — by ctx or by an injected budget exhaustion, which returns
// an error wrapping cec.ErrBudgetExhausted — are retried by the next call.
func (v *Verifier) VerifyCtx(ctx context.Context, asg Assignment) (cec.Verdict, error) {
	choice, err := v.a.SlotChoice(asg)
	if err != nil {
		return cec.Verdict{}, err
	}
	v.mu.Lock()
	if v.cert != nil {
		ok, err := v.cert.Certify(ctx)
		if err != nil {
			v.mu.Unlock()
			return cec.Verdict{}, err
		}
		if ok {
			v.mu.Unlock()
			return cec.Verdict{Equivalent: true, Proved: true}, nil
		}
		mSessionFallbacks.Inc()
		v.fallBack()
	}
	sess := v.sess
	v.mu.Unlock()
	if sess != nil {
		return sess.VerifyCtx(ctx, choice)
	}
	mOneShotFallbacks.Inc()
	inst, err := Embed(v.a, asg)
	if err != nil {
		return cec.Verdict{}, err
	}
	return cec.CheckCtx(ctx, v.a.Circuit, inst, cec.DefaultOptions())
}

// SharedVerifier returns the analysis-wide verifier, building it on first
// use. The verifier (and its certifier or session) is safe for concurrent
// Verify calls.
func (a *Analysis) SharedVerifier() *Verifier {
	a.verifyMu.Lock()
	defer a.verifyMu.Unlock()
	if a.verifier == nil {
		a.verifier = NewVerifier(a)
	}
	return a.verifier
}
