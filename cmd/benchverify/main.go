// Command benchverify times the three verification paths for N fingerprint
// copies of one analysis and records the result as a JSON baseline
// artefact: the window certificates (a fresh core.Verifier, whose first
// verify proves the catalogue window by window), the persistent cec.Session
// (including session construction; the verifier's fallback), and N cold
// cec.Check calls on pre-embedded copies. All three must agree on every
// verdict; the baseline asserts the session is at least 3× faster than the
// cold path.
//
//	benchverify                      c5315, 64 copies, BENCH_verify.json
//	benchverify -circuit c7552 -copies 32 -o /tmp/b.json
//	benchverify -report run.json     also emit a report.RunReport manifest
//
// With -report the run additionally writes a report.RunReport manifest:
// flags, stage wall times, the internal/obs metrics snapshot (miter sizes,
// window and sweep/assumption solve counts, SAT work) and the verdict
// summary. -deterministic zeroes the manifest's wall-clock fields.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/cec"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/report"
)

// Baseline is the JSON schema of the emitted artefact.
type Baseline struct {
	Circuit       string  `json:"circuit"`
	Gates         int     `json:"gates"`
	Copies        int     `json:"copies"`
	WindowSecs    float64 `json:"window_secs"`  // certify + N verifies
	Certified     bool    `json:"certified"`    // every window proved: no fallback
	SessionSecs   float64 `json:"session_secs"` // build + N incremental verifies
	ColdSecs      float64 `json:"cold_secs"`    // N one-shot miters (embed excluded)
	Speedup       float64 `json:"speedup"`
	VerdictsMatch bool    `json:"verdicts_match"`
	AllEquivalent bool    `json:"all_equivalent"`
}

func main() {
	name := flag.String("circuit", "c5315", "benchmark circuit")
	copies := flag.Int("copies", 64, "number of fingerprint copies to verify")
	seed := flag.Int64("seed", 1, "assignment-draw seed")
	out := flag.String("o", "BENCH_verify.json", "output JSON path")
	reportPath := flag.String("report", "", "write a JSON run manifest to this path")
	deterministic := flag.Bool("deterministic", false, "zero wall-clock fields in the -report manifest")
	flag.Parse()

	var rb *report.Builder
	if *reportPath != "" {
		rb = report.NewBuilder("benchverify", *deterministic)
		rb.Flags(flag.CommandLine)
	}

	analyzeStart := time.Now()
	spec, err := bench.ByName(*name)
	fail(err)
	c := spec.Build()
	a, err := core.Analyze(c, core.DefaultOptions(cell.Default()))
	fail(err)
	if rb != nil {
		rb.Stage("analyze", analyzeStart)
	}

	rng := rand.New(rand.NewSource(*seed))
	n := a.BitCapacity()
	asgs := make([]core.Assignment, *copies)
	for i := range asgs {
		bits := make([]bool, n)
		for j := range bits {
			bits[j] = rng.Intn(2) == 1
		}
		asgs[i], err = a.AssignmentFromBits(bits)
		fail(err)
	}

	// Window path: a fresh verifier certifies the catalogue on its first
	// verify; every copy after that needs no solver.
	windowStart := time.Now()
	ver := core.NewVerifier(a)
	windowVerdicts := make([]bool, *copies)
	for i, asg := range asgs {
		v, err := ver.Verify(asg)
		fail(err)
		windowVerdicts[i] = v.Equivalent
	}
	windowSecs := time.Since(windowStart).Seconds()
	if rb != nil {
		rb.Stage("window_verify", windowStart)
	}

	// Session path: one persistent miter, one assumption solve per copy.
	sessionStart := time.Now()
	sess, err := cec.NewSession(a.Circuit, a.Slots(), cec.DefaultOptions())
	if err != nil {
		fail(fmt.Errorf("session construction failed for %s: %w", *name, err))
	}
	sessionVerdicts := make([]bool, *copies)
	for i, asg := range asgs {
		choice, err := a.SlotChoice(asg)
		fail(err)
		v, err := sess.Verify(choice)
		fail(err)
		sessionVerdicts[i] = v.Equivalent
	}
	sessionSecs := time.Since(sessionStart).Seconds()
	if rb != nil {
		rb.Stage("session_verify", sessionStart)
	}

	// Cold path: a fresh miter per copy. The copies are materialized up
	// front so only verification is timed, matching the session side (which
	// never materializes at all).
	instances := make([]*circuit.Circuit, *copies)
	for i, asg := range asgs {
		instances[i], err = core.Embed(a, asg)
		fail(err)
	}
	coldStart := time.Now()
	match, allEq := true, true
	for i, inst := range instances {
		v, err := cec.Check(a.Circuit, inst, cec.DefaultOptions())
		fail(err)
		if v.Equivalent != sessionVerdicts[i] || v.Equivalent != windowVerdicts[i] {
			match = false
		}
		if !v.Equivalent {
			allEq = false
		}
	}
	coldSecs := time.Since(coldStart).Seconds()
	if rb != nil {
		rb.Stage("cold_verify", coldStart)
	}

	b := Baseline{
		Circuit:       *name,
		Gates:         c.NumGates(),
		Copies:        *copies,
		WindowSecs:    windowSecs,
		Certified:     ver.Certified(),
		SessionSecs:   sessionSecs,
		ColdSecs:      coldSecs,
		Speedup:       coldSecs / sessionSecs,
		VerdictsMatch: match,
		AllEquivalent: allEq,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	fail(err)
	fail(os.WriteFile(*out, append(data, '\n'), 0o644))
	if rb != nil {
		rb.SetVerify(report.VerifySummary{
			Circuit:       b.Circuit,
			Gates:         b.Gates,
			Copies:        b.Copies,
			WindowSecs:    b.WindowSecs,
			SessionSecs:   b.SessionSecs,
			ColdSecs:      b.ColdSecs,
			Speedup:       b.Speedup,
			VerdictsMatch: b.VerdictsMatch,
			AllEquivalent: b.AllEquivalent,
		})
		fail(rb.Finish().WriteFile(*reportPath))
	}
	fmt.Printf("%s: %d copies, windows %.2fs (certified: %v), session %.2fs vs cold %.2fs — %.1f× (verdicts match: %v)\n",
		b.Circuit, b.Copies, b.WindowSecs, b.Certified, b.SessionSecs, b.ColdSecs, b.Speedup, b.VerdictsMatch)
	if !match {
		fail(fmt.Errorf("window, session and one-shot verdicts disagree"))
	}
	if b.Speedup < 3 {
		fail(fmt.Errorf("speedup %.2f× below the 3× acceptance bar", b.Speedup))
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchverify:", err)
		os.Exit(1)
	}
}
