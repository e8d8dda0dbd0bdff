package core

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/cec"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/obs"
)

// Result bundles the outcome of a full fingerprinting run: the analysed
// design, the embedded instance, its fingerprint, and the quality impact.
type Result struct {
	Analysis      *Analysis
	Assignment    Assignment
	Fingerprinted *circuit.Circuit
	Base          Metrics
	Modified      Metrics
	Overhead      Overhead
}

// Fingerprint runs the complete Fig. 6 pipeline on c: sweep, analyse,
// decode the fingerprint value into an assignment, embed, and measure.
// value may be nil, meaning "apply every location" (the Table II
// configuration).
func Fingerprint(c *circuit.Circuit, lib *cell.Library, value *big.Int) (*Result, error) {
	swept, _ := c.Sweep()
	a, err := Analyze(swept, DefaultOptions(lib))
	if err != nil {
		return nil, err
	}
	var asg Assignment
	if value == nil {
		asg = FullAssignment(a)
	} else {
		asg, err = a.AssignmentFromInt(value)
		if err != nil {
			return nil, err
		}
	}
	return finish(a, asg, lib)
}

// FingerprintBits is Fingerprint with a binary one-bit-per-location
// fingerprint (e.g. a buyer ID).
func FingerprintBits(c *circuit.Circuit, lib *cell.Library, bits []bool) (*Result, error) {
	swept, _ := c.Sweep()
	a, err := Analyze(swept, DefaultOptions(lib))
	if err != nil {
		return nil, err
	}
	asg, err := a.AssignmentFromBits(bits)
	if err != nil {
		return nil, err
	}
	return finish(a, asg, lib)
}

func finish(a *Analysis, asg Assignment, lib *cell.Library) (*Result, error) {
	sp := obs.Start("core.fingerprint_finish")
	defer sp.End()
	fp, err := Embed(a, asg)
	if err != nil {
		return nil, err
	}
	base, err := Measure(a.Circuit, lib)
	if err != nil {
		return nil, err
	}
	mod, err := Measure(fp, lib)
	if err != nil {
		return nil, err
	}
	return &Result{
		Analysis:      a,
		Assignment:    asg,
		Fingerprinted: fp,
		Base:          base,
		Modified:      mod,
		Overhead:      OverheadOf(base, mod),
	}, nil
}

// Verify proves that the fingerprinted instance is functionally equivalent
// to the analysed original (Requirement 1) and names the proof that ran.
// Copies produced by the pipeline are fully determined by their Assignment
// and conform to it (Embed checks), so the proof runs on the analysis-wide
// Verifier (SharedVerifier): window certificates first, the incremental
// cec.Session if a window fails; an assignment the verifier cannot serve
// falls back to a one-shot cec.Check of the materialized netlist.
func (r *Result) Verify() (string, error) {
	v, proof, err := r.Analysis.SharedVerifier().verify(context.Background(), r.Assignment)
	if err != nil {
		// The session path could not serve this assignment (e.g. shape
		// drift); fall back to checking the concrete netlist.
		mSessionFallbacks.Inc()
		v, err = cec.Check(r.Analysis.Circuit, r.Fingerprinted, cec.DefaultOptions())
		if err != nil {
			return "", err
		}
		proof = proofMiter
	}
	if !v.Equivalent {
		return "", fmt.Errorf("core: fingerprinted instance differs on PO %q for input %v", v.PO, v.Counterexample)
	}
	return proof, nil
}
