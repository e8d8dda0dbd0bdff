package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/benchfmt"
)

// stepKind is one unit of client work: one to three requests that belong
// together.
type stepKind int

const (
	// stepIssueTrace issues a copy to a new buyer, then traces that copy
	// (interactive's step).
	stepIssueTrace stepKind = iota
	// stepIssueTraceScores issues a copy to a new buyer, then runs an exact
	// and a score-mode trace of that copy (mature's step).
	stepIssueTraceScores
	// stepOnboard uploads a new renamed variant of the design and issues
	// it one copy (onboard's step).
	stepOnboard
	// stepTrace runs an exact trace of an earlier copy (a probe).
	stepTrace
	// stepScores runs a score-mode trace of an earlier copy (a probe).
	stepScores
	// stepUpload uploads a new renamed variant and issues nothing on it
	// (a probe).
	stepUpload
)

// workload fixes one traffic mix. The timed phase repeats one step kind, a
// buyer's (or a variant's) whole sequence of requests, a fixed number of
// times; the probes then measure the request types that sequence lacks.
type workload struct {
	name    string
	circuit string
	// verify requests ?verify=1 on every timed issue (the set-up issue is
	// always verified, so the CEC session exists before timing starts).
	verify bool
	// preseed buyers are minted at set-up through one async batch job.
	preseed int
	// setups is how many cold starts set-up times; their median is setup_s.
	setups int
	mix    stepKind
	probes []stepKind
	// rate is the mix steps per second the reference machine completed
	// (perfbench/METRICS.md); --seconds times it fixes the step count.
	rate float64
	// pickWindow limits trace/score targets to the newest copies.
	pickWindow int
}

// workloads are the benchmark's traffic mixes; perfbench/METRICS.md gives
// the reason for each and the source of each step.
var workloads = []*workload{
	{
		name: "interactive", circuit: "c5315", verify: true, setups: 9,
		mix: stepIssueTrace, probes: []stepKind{stepScores, stepUpload},
		rate: 44, pickWindow: 256,
	},
	{
		name: "mature", circuit: "c880", preseed: 10000, setups: 5,
		mix: stepIssueTraceScores, probes: []stepKind{stepUpload},
		rate: 3.5, pickWindow: 256,
	},
	{
		name: "onboard", circuit: "c5315", verify: true, setups: 9,
		mix: stepOnboard, probes: []stepKind{stepTrace, stepScores},
		rate: 4.5, pickWindow: 16,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mixSteps is the timed phase's step count for a run of the given length:
// the reference machine's rate times seconds, and at least min.
func (w *workload) mixSteps(seconds float64, min int) int {
	return max(min, int(math.Round(seconds*w.rate)))
}

// step is one planned unit. Fresh buyer and variant names are fixed by the
// seed; a trace target is a seeded draw resolved against the copies issued
// so far (pick modulo their count), so the plan never depends on timing.
type step struct {
	kind    stepKind
	buyer   string
	variant int
	pick    uint64
}

// plan generates a workload's seeded steps.
type plan struct {
	w   *workload
	rng *rand.Rand
	// samples draws the recovery samples, apart from rng so that the step
	// counts do not change them.
	samples  *rand.Rand
	tag      string
	buyers   int
	variants int
}

func newPlan(w *workload, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	return &plan{w: w, rng: rng, samples: rand.New(rand.NewSource(^seed)),
		tag: fmt.Sprintf("%08x", rng.Uint32())}
}

// nextBuyer names a fresh buyer.
func (p *plan) nextBuyer() string {
	p.buyers++
	return fmt.Sprintf("b-%s-%06d", p.tag, p.buyers)
}

// setupBuyer names the buyer of the set-up issue.
func (p *plan) setupBuyer() string { return "setup-" + p.tag }

// seedPrefix prefixes the buyers the preseed job mints.
func (p *plan) seedPrefix() string { return "seed-" + p.tag + "-" }

// variantName names the k-th renamed variant of the workload's design.
func (p *plan) variantName(k int) string {
	return fmt.Sprintf("%s-%s-v%d", p.w.circuit, p.tag, k)
}

// mixSteps returns the next n steps of the workload's mix.
func (p *plan) mixSteps(n int) []step {
	out := make([]step, n)
	for i := range out {
		out[i] = p.fill(p.w.mix)
	}
	return out
}

// probeSteps returns count(k) steps of each probe kind k in seeded order.
func (p *plan) probeSteps(count func(stepKind) int) []step {
	var out []step
	for _, k := range p.w.probes {
		for i := 0; i < count(k); i++ {
			out = append(out, step{kind: k})
		}
	}
	p.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i] = p.fill(out[i].kind)
	}
	return out
}

// readOnly reports whether a step kind leaves the daemon's registry and
// design set as they were: such probes can run inside the timed phase.
func (k stepKind) readOnly() bool { return k == stepTrace || k == stepScores }

// schedule plans a run: n mix steps with the read-only probes spread evenly
// among them, and the other probes (uploads, which add designs to the
// analysis cache) to run after the timed phase. Spreading the probes makes
// their medians sample the host over the whole phase, not over the second
// or two after it. The random draws are made in the same order as
// mixSteps(n) followed by probeSteps(count).
func (p *plan) schedule(n int, count func(stepKind) int) (timed, after []step) {
	mix := p.mixSteps(n)
	var spread []step
	for _, s := range p.probeSteps(count) {
		if s.kind.readOnly() {
			spread = append(spread, s)
		} else {
			after = append(after, s)
		}
	}
	timed = make([]step, 0, len(mix)+len(spread))
	j := 0
	for i, s := range mix {
		// Probe j follows the first (j+1)·n/(len(spread)+1) mix steps.
		for ; j < len(spread) && (j+1)*n/(len(spread)+1) <= i; j++ {
			timed = append(timed, spread[j])
		}
		timed = append(timed, s)
	}
	return append(timed, spread[j:]...), after
}

// fill names a step's fresh buyer or variant and draws its target.
func (p *plan) fill(k stepKind) step {
	s := step{kind: k, pick: p.rng.Uint64()}
	switch k {
	case stepIssueTrace, stepIssueTraceScores:
		s.buyer = p.nextBuyer()
	case stepUpload:
		p.variants++
		s.variant = p.variants
	case stepOnboard:
		p.variants++
		s.variant = p.variants
		s.buyer = p.nextBuyer()
	}
	return s
}

// recoverySample draws n indices into a list of acknowledged copies.
func (p *plan) recoverySample(n, of int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = p.samples.Intn(of)
	}
	return out
}

// designNetlist renders a suite circuit as .bench text.
func designNetlist(circuit string) ([]byte, error) {
	spec, err := bench.ByName(circuit)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := benchfmt.Write(&buf, spec.Build()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// renameVariant gives a netlist a new circuit name — the .bench parser
// takes the name from the first comment line, and the name is part of the
// design digest — leaving its logic untouched.
func renameVariant(netlist []byte, name string) []byte {
	return append([]byte("# "+name+"\n"), netlist...)
}

// pickIndex resolves a seeded draw against n copies, newest window only.
func pickIndex(pick uint64, n, window int) int {
	if window > 0 && n > window {
		return n - window + int(pick%uint64(window))
	}
	return int(pick % uint64(n))
}
