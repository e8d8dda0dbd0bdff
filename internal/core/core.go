// Package core implements the paper's contribution: ODC-based circuit
// fingerprinting (Dunbar & Qu, "A Practical Circuit Fingerprinting Method
// Utilizing Observability Don't Care Conditions", DAC 2015).
//
// The pipeline mirrors §III and the Fig. 6 pseudo-code:
//
//  1. Analyze finds fingerprint locations (Definition 1): a primary gate
//     with a controlling-value ODC, one fanout-free-cone (FFC) fanin Y, and
//     a trigger input X ≠ Y. For each location it enumerates the legal
//     modifications (Definition 2 and Figs. 4–5) of every eligible gate in
//     the FFC — the modification catalogue the paper references as a lookup
//     table.
//  2. An Assignment selects, per location and per target gate, one variant
//     (or none). Embed applies an assignment to a clone; EmbedAll applies
//     the canonical variant everywhere (what Table II measures).
//  3. Extract recovers the assignment — and hence the fingerprint bits —
//     by structurally diffing a (possibly copied) instance against the
//     original, implementing the detection flow of §III-E.
//  4. Capacity/bit accounting: locations, total combination count and its
//     log₂ (Table II columns 6–7), plus mixed-radix encode/decode between
//     big-integer fingerprints and assignments.
package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cec"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/odc"
)

// Observability counters (internal/obs) for the analysis and embedding hot
// paths, aggregated across every Analyze/Embed call in the process.
var (
	mAnalyses       = obs.NewCounter("core", "analyses")
	mODCChecks      = obs.NewCounter("core", "odc_checks")
	mLocationsFound = obs.NewCounter("core", "locations_found")
	mTargetsFound   = obs.NewCounter("core", "targets_found")
	mEmbeds         = obs.NewCounter("core", "embeds")
	mModsEmbedded   = obs.NewCounter("core", "mods_embedded")
	mVariantKind    = [...]*obs.Counter{
		AddLiteral:    obs.NewCounter("core", "variant_add_literal"),
		ConvertSingle: obs.NewCounter("core", "variant_convert_single"),
		Reroute:       obs.NewCounter("core", "variant_reroute"),
	}
	mOneShotFallbacks = obs.NewCounter("core", "verify_oneshot_fallbacks")
	mSessionFallbacks = obs.NewCounter("core", "verify_session_fallbacks")
)

// Lit is a signal reference with polarity: the value fed to a modified gate
// is Node when !Neg and its complement when Neg (realised as a fresh
// inverter at embed time). It is cec's literal, so the verifier's slots
// share the catalogue's literal slices (Slots).
type Lit = cec.Lit

// VariantKind classifies a modification.
type VariantKind uint8

const (
	// AddLiteral appends the trigger literal as an extra input pin of a
	// multi-input target gate (Fig. 4).
	AddLiteral VariantKind = iota
	// ConvertSingle converts a single-input target (BUF/INV) into a
	// two-input gate reading the trigger literal (Definition 1 criterion 3's
	// "single input gate" case).
	ConvertSingle
	// Reroute feeds one or two inputs of the trigger's driver gate instead
	// of the trigger itself (Fig. 5), saving the trigger's gate delay.
	Reroute
)

// String names the kind for diagnostics and metrics.
func (k VariantKind) String() string {
	switch k {
	case AddLiteral:
		return "add-literal"
	case ConvertSingle:
		return "convert-single"
	case Reroute:
		return "reroute"
	}
	return fmt.Sprintf("VariantKind(%d)", uint8(k))
}

// Variant is one legal modification of one target gate.
type Variant struct {
	Kind VariantKind
	// NewGateKind is the target's kind after modification (equal to the
	// original kind for AddLiteral/Reroute).
	NewGateKind logic.Kind
	// Lits are the literals to append (one for AddLiteral/ConvertSingle,
	// one or two for Reroute).
	Lits []Lit
}

// Target is a gate inside a location's FFC together with its legal variants.
type Target struct {
	Gate     circuit.NodeID
	Variants []Variant
}

// Location is a fingerprint location per Definition 1.
type Location struct {
	// Primary is "gate 2": the ODC-capable gate whose trigger input masks
	// the FFC.
	Primary circuit.NodeID
	// FFCRoot is the driver of the fanout-free fanin Y (criterion 2).
	FFCRoot circuit.NodeID
	// FFCPin is the pin index of Primary reading FFCRoot.
	FFCPin int
	// Trigger is the ODC trigger signal X (Definition 2); TriggerPin its
	// pin index on Primary.
	Trigger    circuit.NodeID
	TriggerPin int
	// TriggerValue is the value of X that activates the ODC (the primary
	// gate's controlling value).
	TriggerValue bool
	// Cone is the FFC of FFCRoot (root first).
	Cone []circuit.NodeID
	// Targets lists modifiable cone gates, deepest (highest level) first;
	// Targets[0] is the canonical choice of the paper's greedy flow.
	Targets []Target
}

// Configs returns the number of distinct configurations of this location:
// the product over targets of (1 + number of variants). The unmodified
// configuration is included, so Configs ≥ 2 for any reported location.
func (l *Location) Configs() float64 {
	n := 1.0
	for _, t := range l.Targets {
		n *= float64(1 + len(t.Variants))
	}
	return n
}

// TriggerPolicy selects which of the primary gate's non-FFC inputs becomes
// the ODC trigger signal.
type TriggerPolicy uint8

const (
	// ShallowestTrigger picks the input with the lowest logic level — the
	// paper's Fig. 6 choice ("choose other gate with lowest depth"),
	// rationalised as minimising added path delay ("The ODC trigger signal
	// was chosen so that we could reduce our delay overhead").
	ShallowestTrigger TriggerPolicy = iota
	// DeepestTrigger picks the highest-level input instead; exists for the
	// ablation that validates the paper's rationale (BenchmarkAblationTrigger).
	DeepestTrigger
)

// Options tunes the analysis.
type Options struct {
	// Library bounds gate widths; required.
	Library *cell.Library
	// AllowConvert enables single-input gate conversion targets (on by
	// default in DefaultOptions).
	AllowConvert bool
	// AllowReroute enables the Fig. 5 variants.
	AllowReroute bool
	// MaxTargetsPerLocation caps how many cone gates are offered as
	// targets (0 = no cap). The paper's greedy flow uses one; capacity
	// accounting benefits from more.
	MaxTargetsPerLocation int
	// Trigger selects the trigger-input heuristic (default: the paper's
	// shallowest-input rule).
	Trigger TriggerPolicy
}

// DefaultOptions enables every modification type with the default library.
func DefaultOptions(lib *cell.Library) Options {
	return Options{Library: lib, AllowConvert: true, AllowReroute: true}
}

// Analysis is the result of scanning a circuit for fingerprint locations.
type Analysis struct {
	Circuit   *circuit.Circuit
	Options   Options
	Locations []Location
	// levels caches the logic level of every node of Circuit.
	levels []int
	// verifier lazily holds the circuit's verifier (verify.go): window
	// certificates first, a shared whole-circuit session as the fallback.
	verifyMu sync.Mutex
	verifier *Verifier
	// digest is the design digest, computed once by Digest (digest.go).
	digestOnce sync.Once
	digest     string

	// Scan state: target gates already claimed by an earlier location, and
	// the MFFC cone scratch reused across primaries.
	claimed []bool
	coneBuf []circuit.NodeID
	// hasCell densely caches Options.Library.Has per (kind, fanin).
	hasCell [logic.NumKinds][]bool

	// Chunked arenas and scratch buffers for the scan's result slices. The
	// hot loop produces tens of thousands of tiny Lit/Variant/Target slices;
	// carving them out of shared chunks instead of individual allocations is
	// one of the packed path's main wins. Arena chunks are never reallocated
	// in place, so handed-out sub-slices (capacity-clamped) stay valid.
	litArena  arena[Lit]
	varArena  arena[Variant]
	tgtArena  arena[Target]
	nodeArena arena[circuit.NodeID]
	varBuf    []Variant // variantsFor scratch
	rrBuf     []Variant // rerouteVariants scratch
	tgtBuf    []Target  // locationAt target scratch
}

// arenaChunk is the element capacity of one arena chunk.
const arenaChunk = 4096

// arena hands out capacity-clamped sub-slices of large shared chunks. A
// chunk is abandoned (still referenced by its sub-slices, never reused) once
// the next request no longer fits; a request larger than arenaChunk gets a
// chunk of its own size.
type arena[T any] struct {
	cur []T
}

func (ar *arena[T]) alloc(n int) []T {
	if n > cap(ar.cur)-len(ar.cur) {
		ar.cur = make([]T, 0, max(arenaChunk, n))
	}
	lo := len(ar.cur)
	ar.cur = ar.cur[:lo+n]
	return ar.cur[lo : lo+n : lo+n]
}

// clone copies s into the arena.
func (ar *arena[T]) clone(s []T) []T {
	out := ar.alloc(len(s))
	copy(out, s)
	return out
}

// lit1 and lit2 build arena-backed literal slices.
func (a *Analysis) lit1(l Lit) []Lit {
	s := a.litArena.alloc(1)
	s[0] = l
	return s
}

func (a *Analysis) lit2(l0, l1 Lit) []Lit {
	s := a.litArena.alloc(2)
	s[0], s[1] = l0, l1
	return s
}

// Analyze scans the circuit and returns all fingerprint locations with their
// modification catalogues. It follows the Fig. 6 pseudo-code: every gate is
// examined as a potential primary gate; its deepest fanout-free fanin
// becomes Y and its shallowest other input becomes the trigger X.
func Analyze(c *circuit.Circuit, opts Options) (*Analysis, error) {
	return AnalyzeCtx(context.Background(), c, opts)
}

// AnalyzeCtx is Analyze with cooperative cancellation: the primary-gate scan
// polls ctx periodically and returns the context error once it is done, so a
// daemon deadline interrupts even very large netlists promptly.
//
// The scan runs on a packed circuit.ScanView (flat sink counts, PO-driver
// mask, allocation-free MFFC). The produced locations are bit-for-bit
// identical to AnalyzeBaseline, the retained pre-packing implementation
// (TestAnalyzeMatchesBaseline).
func AnalyzeCtx(ctx context.Context, c *circuit.Circuit, opts Options) (*Analysis, error) {
	if opts.Library == nil {
		return nil, fmt.Errorf("core: Options.Library is required")
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid circuit: %w", err)
	}
	sp := obs.Start("core.analyze")
	defer sp.End()
	mAnalyses.Inc()
	view := circuit.NewScanView(c)
	defer view.Release()
	a := &Analysis{
		Circuit: c,
		Options: opts,
		levels:  c.Levels(),
		claimed: make([]bool, len(c.Nodes)),
		// Locations come to a few percent of the gate count; sizing up
		// front avoids append-growth garbage.
		Locations: make([]Location, 0, len(c.Nodes)/16+8),
	}
	for k := range a.hasCell {
		kind := logic.Kind(k)
		t := make([]bool, opts.Library.MaxFanin(kind)+1)
		for w := range t {
			t[w] = opts.Library.Has(kind, w)
		}
		a.hasCell[k] = t
	}

	// Scan primary-gate candidates in topological order for determinism.
	// Counters are batched locally: one atomic per gate is measurable at
	// this loop's per-node cost.
	done := ctx.Done()
	var checks int64
	for i, p := range c.MustTopoOrder() {
		if done != nil && i%256 == 255 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		nd := &c.Nodes[p]
		if nd.IsPI {
			continue
		}
		checks++
		// Criterion 4 precondition: primary gate has non-zero local ODC.
		if !odc.HasLocalODC(nd.Kind, len(nd.Fanin)) {
			continue
		}
		loc, ok := a.locationAt(view, p)
		if !ok {
			continue
		}
		for _, t := range loc.Targets {
			a.claimed[t.Gate] = true
		}
		a.Locations = append(a.Locations, loc)
	}
	mODCChecks.Add(checks)
	mLocationsFound.Add(int64(a.NumLocations()))
	mTargetsFound.Add(int64(a.TotalTargets()))
	if len(a.Locations) == 0 {
		a.Locations = nil // a fingerprint-free circuit reports no list at all
	}
	return a, nil
}

// locationAt attempts to build a location with primary gate p. Cone gates
// already claimed by an earlier location are not offered as targets.
func (a *Analysis) locationAt(view *circuit.ScanView, p circuit.NodeID) (Location, bool) {
	c := a.Circuit
	nd := &c.Nodes[p]
	cv, _ := nd.Kind.ControllingValue()

	// Choose Y: the deepest fanin that (criterion 1) is not a PI and
	// (criterion 2) fans out only into p.
	yPin := -1
	for i, f := range nd.Fanin {
		fn := &c.Nodes[f]
		if fn.IsPI {
			continue
		}
		if fn.Kind == logic.Const0 || fn.Kind == logic.Const1 {
			continue
		}
		if view.SinkCount(f) != 1 {
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

	// Choose X: by default the shallowest input other than Y (Fig. 6 line
	// 14: "choose other gate with lowest depth", minimising added path
	// delay); the DeepestTrigger policy inverts the rule for the ablation.
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

	a.coneBuf = view.AppendMFFC(y, a.coneBuf[:0])
	cone := a.nodeArena.clone(a.coneBuf)
	loc := Location{
		Primary:      p,
		FFCRoot:      y,
		FFCPin:       yPin,
		Trigger:      x,
		TriggerPin:   xPin,
		TriggerValue: cv,
		Cone:         cone,
	}

	// Criterion 3: enumerate modifiable cone gates.
	targets := a.tgtBuf[:0]
	for _, g := range cone {
		if a.claimed[g] {
			continue
		}
		gd := &c.Nodes[g]
		if !gd.Kind.FingerprintTarget(false) {
			continue
		}
		if gd.Kind.SingleInput() && !a.Options.AllowConvert {
			continue
		}
		variants := a.variantsFor(loc, g)
		if len(variants) == 0 {
			continue
		}
		targets = append(targets, Target{Gate: g, Variants: variants})
	}
	a.tgtBuf = targets[:0]
	if len(targets) == 0 {
		return Location{}, false
	}
	// Deepest target first: the canonical pick of §IV-A ("the input gate
	// within the fan out free cone, which had the highest depth"). Insertion
	// sort is stable, so ties keep cone order exactly like the baseline's
	// sort.SliceStable.
	for i := 1; i < len(targets); i++ {
		t := targets[i]
		lv := a.levels[t.Gate]
		j := i
		for j > 0 && a.levels[targets[j-1].Gate] < lv {
			targets[j] = targets[j-1]
			j--
		}
		targets[j] = t
	}
	if m := a.Options.MaxTargetsPerLocation; m > 0 && len(targets) > m {
		targets = targets[:m]
	}
	loc.Targets = a.tgtArena.clone(targets)
	return loc, true
}

// Levels exposes the cached logic levels (test support).
func (a *Analysis) Levels() []int { return a.levels }

// NumLocations returns the number of fingerprint locations (Table II col 6).
func (a *Analysis) NumLocations() int { return len(a.Locations) }

// TotalTargets returns the number of (location, target) modification slots.
func (a *Analysis) TotalTargets() int {
	n := 0
	for i := range a.Locations {
		n += len(a.Locations[i].Targets)
	}
	return n
}
