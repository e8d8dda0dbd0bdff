// Package odcfp is the public API of this repository: a from-scratch Go
// implementation of ODC-based circuit fingerprinting (Dunbar & Qu, "A
// Practical Circuit Fingerprinting Method Utilizing Observability Don't
// Care Conditions", DAC 2015) together with every substrate the flow needs
// — netlist representation, BLIF/Verilog I/O, technology mapping onto a
// standard-cell library, static timing, probabilistic power estimation,
// bit-parallel simulation and SAT-based equivalence checking.
//
// The typical flow:
//
//	lib := odcfp.DefaultLibrary()
//	c, _ := odcfp.Benchmark("c432")           // or ReadBLIF / ReadVerilog
//	a, _ := odcfp.Analyze(c, lib)             // find fingerprint locations
//	fmt.Println(a.Capacity())                 // locations, log2(combinations)
//	res, _ := odcfp.Fingerprint(c, lib, big.NewInt(12345))
//	proof, _ := res.Verify()                  // names the equivalence proof
//	asg, _ := odcfp.Extract(res.Analysis, res.Fingerprinted)
//	id, _ := res.Analysis.IntFromAssignment(asg)   // == 12345
//
// Delay-constrained fingerprinting (the paper's §III-D/§IV-B heuristics)
// lives behind ConstrainReactive and ConstrainProactive; the collusion
// attack and buyer tracing of §III-E behind Collude, NewRegistry and
// Implicated.
package odcfp

import (
	"io"
	"math/big"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/blif"
	"repro/internal/cec"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/constrain"
	"repro/internal/core"
	"repro/internal/fpcode"
	"repro/internal/fuse"
	"repro/internal/redteam"
	"repro/internal/registry"
	"repro/internal/sdc"
	"repro/internal/techmap"
	"repro/internal/verilog"
	"repro/internal/watermark"
)

// Core netlist and library types.
type (
	// Circuit is a combinational gate-level netlist.
	Circuit = circuit.Circuit
	// NodeID indexes a node within one Circuit.
	NodeID = circuit.NodeID
	// Library is a standard-cell library pricing area, delay and power.
	Library = cell.Library

	// Analysis is the set of fingerprint locations found in a circuit.
	Analysis = core.Analysis
	// Assignment selects one modification variant (or none) per location
	// target; it is the structural form of a fingerprint.
	Assignment = core.Assignment
	// Result bundles a fingerprinting run: analysis, embedded instance,
	// metrics and overheads.
	Result = core.Result
	// Metrics are gate count, area, delay and power of one netlist.
	Metrics = core.Metrics
	// Overhead is the fractional cost of a fingerprinted instance.
	Overhead = core.Overhead
	// Capacity summarises the fingerprint space (Table II columns 6–7).
	Capacity = core.Capacity

	// ConstrainOptions configures the delay-budget heuristics.
	ConstrainOptions = constrain.Options
	// ConstrainResult reports a constrained fingerprinting outcome.
	ConstrainResult = constrain.Result

	// CollusionResult reports a collusion attack's outcome.
	CollusionResult = redteam.CollusionResult
	// Registry is the designer-side record of issued fingerprints, used to
	// trace pirated copies back to buyers.
	Registry = registry.Registry
	// Score is one buyer's agreement with a traced suspect copy.
	Score = registry.Score

	// Verifier proves fingerprint copies equivalent to the master. It
	// first proves each fingerprint location's ODC window once (window
	// certificates); if a window fails it falls back to a persistent
	// incremental cec.Session, and to a one-shot cec.Check when the
	// session cannot express the catalogue. Obtain one with NewVerifier
	// or share the analysis-wide instance via (*Analysis).SharedVerifier.
	Verifier = core.Verifier
	// Verdict is an equivalence-check outcome (cec package).
	Verdict = cec.Verdict
)

// NewVerifier builds an incremental verifier for an analysis; see
// (*Analysis).SharedVerifier for the shared instance.
func NewVerifier(a *Analysis) *Verifier { return core.NewVerifier(a) }

// DefaultLibrary returns the MCNC-flavoured standard-cell library used
// throughout the reproduction.
func DefaultLibrary() *Library { return cell.Default() }

// Benchmark builds one of the paper's Table II benchmark circuits by name
// (c432, c499, c880, c1355, c1908, c3540, c6288, des, k2, t481, i10, i8,
// dalu, vda). Generators are deterministic.
func Benchmark(name string) (*Circuit, error) {
	spec, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Build(), nil
}

// BenchmarkNames lists the available benchmark circuits in Table II order.
func BenchmarkNames() []string { return bench.Names() }

// ReadBLIF parses a combinational BLIF model and maps it onto the library's
// gate vocabulary (the paper's ABC `map` step).
func ReadBLIF(r io.Reader, lib *Library) (*Circuit, error) {
	n, err := blif.Parse(r)
	if err != nil {
		return nil, err
	}
	return techmap.Map(n, techmap.DefaultOptions(lib))
}

// ReadVerilog parses a structural gate-level Verilog netlist (the subset
// WriteVerilog and ABC emit).
func ReadVerilog(r io.Reader) (*Circuit, error) { return verilog.Parse(r) }

// WriteVerilog emits a circuit as structural Verilog.
func WriteVerilog(w io.Writer, c *Circuit) error { return verilog.Write(w, c) }

// ReadBench parses an ISCAS ".bench" netlist (the ISCAS'85 suite's native
// format).
func ReadBench(r io.Reader) (*Circuit, error) { return benchfmt.Parse(r) }

// WriteBench emits a circuit in ISCAS ".bench" form.
func WriteBench(w io.Writer, c *Circuit) error { return benchfmt.Write(w, c) }

// Analyze finds all fingerprint locations (Definition 1) and their
// modification catalogues (Definition 2, Figs. 4–5).
func Analyze(c *Circuit, lib *Library) (*Analysis, error) {
	return core.Analyze(c, core.DefaultOptions(lib))
}

// Measure computes gate count, area, delay and power under lib.
func Measure(c *Circuit, lib *Library) (Metrics, error) { return core.Measure(c, lib) }

// Fingerprint runs the full pipeline: analyse, decode value into an
// assignment (nil value = modify every location, the Table II
// configuration), embed and measure.
func Fingerprint(c *Circuit, lib *Library, value *big.Int) (*Result, error) {
	return core.Fingerprint(c, lib, value)
}

// FingerprintBits embeds a plain binary fingerprint, one bit per location.
func FingerprintBits(c *Circuit, lib *Library, bits []bool) (*Result, error) {
	return core.FingerprintBits(c, lib, bits)
}

// Embed builds the fingerprinted copy an assignment selects.
func Embed(a *Analysis, asg Assignment) (*Circuit, error) { return core.Embed(a, asg) }

// Extract recovers the fingerprint assignment from a (possibly pirated)
// instance by structural comparison against the analysed original.
func Extract(a *Analysis, copy *Circuit) (Assignment, error) { return core.Extract(a, copy) }

// Equivalent proves or refutes functional equivalence of two circuits over
// the same PI/PO interface using random simulation plus SAT; a nil error
// means proved equivalent.
func Equivalent(a, b *Circuit) error { return cec.MustEquivalent(a, b) }

// ConstrainReactive prunes a fully fingerprinted design to a delay budget
// using the paper's reactive heuristic (§IV-B).
func ConstrainReactive(a *Analysis, opts ConstrainOptions) (*ConstrainResult, error) {
	return constrain.Reactive(a, core.FullAssignment(a), opts)
}

// ConstrainProactive builds a constrained fingerprint bottom-up using the
// slack-ordered proactive heuristic (§III-D).
func ConstrainProactive(a *Analysis, opts ConstrainOptions) (*ConstrainResult, error) {
	return constrain.Proactive(a, opts)
}

// FullAssignment returns the modify-every-location assignment.
func FullAssignment(a *Analysis) Assignment { return core.FullAssignment(a) }

// EmptyAssignment returns the all-unmodified assignment.
func EmptyAssignment(a *Analysis) Assignment { return core.EmptyAssignment(a) }

// Collude simulates the §III-E collusion attack over k fingerprinted
// instances of one design: every gate whose form differs across the copies
// takes its fewest-pin form.
func Collude(copies []*Circuit) (*CollusionResult, error) {
	return redteam.Coalition(copies, redteam.StrategyFewestPins)
}

// NewRegistry creates the designer-side fingerprint registry for tracing.
// Record buyers' fingerprints with IssueBatch (a single buyer is a batch of
// one), or with Adopt for a value of the caller's choosing
// (a.IntFromAssignment(asg).String()).
func NewRegistry(a *Analysis) *Registry { return registry.New(a) }

// Implicated returns the buyers whose marking-assumption score on a traced
// suspect (Registry.TraceScores) reaches threshold; a fully stripped
// suspect implicates nobody.
func Implicated(scores []Score, threshold float64) []string {
	return registry.Implicated(scores, threshold)
}

// --- extensions beyond the core pipeline ---------------------------------

// Error-correcting fingerprint payloads (§V's "error correcting codes or
// redundancy" proposal; see internal/fpcode).
type (
	// FPCode is an error-correcting code over fingerprint location bits.
	FPCode = fpcode.Code
	// Repetition is the r-fold repetition code.
	Repetition = fpcode.Repetition
	// Hamming74 is the [7,4] Hamming code.
	Hamming74 = fpcode.Hamming74
)

// NewRepetition returns an r-fold repetition fingerprint code.
func NewRepetition(r int) (Repetition, error) { return fpcode.NewRepetition(r) }

// EmbedPayload encodes an error-protected payload into a fingerprint
// assignment.
func EmbedPayload(a *Analysis, code FPCode, payload []bool) (Assignment, error) {
	return fpcode.EmbedPayload(a, code, payload)
}

// ExtractPayload decodes an error-protected payload from a (possibly
// tampered) copy.
func ExtractPayload(a *Analysis, code FPCode, copy *Circuit) ([]bool, error) {
	return fpcode.ExtractPayload(a, code, copy)
}

// Trit is a fingerprint channel symbol: fpcode.Zero, fpcode.One or
// fpcode.Erased.
type Trit = fpcode.Trit

// Trit values re-exported for callers of ObserveTrits.
const (
	TritZero   = fpcode.Zero
	TritOne    = fpcode.One
	TritErased = fpcode.Erased
)

// ObserveTrits reads the per-location channel symbols from a copy.
func ObserveTrits(a *Analysis, copy *Circuit) ([]Trit, error) {
	return fpcode.ObserveTrits(a, copy)
}

// Post-silicon fuse programming (§I two-step flow, §VI "using fuses as the
// connections"; see internal/fuse).
type (
	// FuseMaster is the fabricated superset design with programmable links.
	FuseMaster = fuse.Master
	// FuseDie is one IC being programmed.
	FuseDie = fuse.Die
)

// NewFuseMaster plans the master die for an analysed design.
func NewFuseMaster(a *Analysis, lib *Library) (*FuseMaster, error) { return fuse.NewMaster(a, lib) }

// Keyed authorship watermarking (§III-E pairs watermark + fingerprint; see
// internal/watermark).
type (
	// WatermarkParams configures watermark planning (key + slot count).
	WatermarkParams = watermark.Params
	// Watermark is a planned keyed watermark.
	Watermark = watermark.Mark
	// WatermarkEvidence is a verification outcome.
	WatermarkEvidence = watermark.Evidence
)

// PlanWatermark derives the keyed watermark for an analysed design.
func PlanWatermark(a *Analysis, p WatermarkParams) (*Watermark, error) { return watermark.Plan(a, p) }

// VerifyWatermark checks a suspect instance for the keyed watermark.
func VerifyWatermark(a *Analysis, p WatermarkParams, suspect *Circuit) (*WatermarkEvidence, error) {
	return watermark.Verify(a, p, suspect)
}

// SDC-based fingerprinting (the companion ASP-DAC 2015 technique, the
// paper's reference [9]; see internal/sdc).
type (
	// SDCAnalysis is the set of SDC fingerprint locations of a circuit.
	SDCAnalysis = sdc.Analysis
	// SDCOptions tunes SDC analysis.
	SDCOptions = sdc.Options
)

// Resynthesize rebuilds a circuit through an And-Inverter Graph (strash +
// balance, ABC-style) and re-maps it with the NAND/NOR peephole. Functions
// are preserved; names and structure are not — which makes this both a
// useful depth optimisation and the paper-scope boundary's canonical
// attack: a resynthesised pirated copy defeats structural fingerprint
// extraction (see EXPERIMENTS.md E13).
func Resynthesize(c *Circuit) (*Circuit, error) {
	g, err := aig.FromCircuit(c)
	if err != nil {
		return nil, err
	}
	flat, err := g.Balance().ToCircuit()
	if err != nil {
		return nil, err
	}
	out := techmap.Nandify(flat)
	swept, _ := out.Sweep()
	if err := swept.Validate(); err != nil {
		return nil, err
	}
	return swept, nil
}

// AnalyzeSDC finds Satisfiability-Don't-Care fingerprint locations.
func AnalyzeSDC(c *Circuit, lib *Library) (*SDCAnalysis, error) {
	return sdc.Analyze(c, sdc.DefaultOptions(lib))
}

// EmbedSDC applies SDC fingerprint bits to a clone of the analysed circuit.
func EmbedSDC(a *SDCAnalysis, bits []bool) (*Circuit, error) { return sdc.Embed(a, bits) }

// ExtractSDC recovers SDC fingerprint bits from a copy.
func ExtractSDC(a *SDCAnalysis, copy *Circuit) ([]bool, error) { return sdc.Extract(a, copy) }
