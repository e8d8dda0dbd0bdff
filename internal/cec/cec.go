// Package cec implements combinational equivalence checking: it strashes two
// circuits over the same primary-input/primary-output interface into one
// shared AIG, lowers it to CNF, builds a miter (XOR of each output pair,
// ORed and asserted), and decides equivalence with the CDCL solver in
// internal/sat. A bit-parallel random-simulation pre-pass over the packed
// miter catches inequivalent pairs cheaply before SAT runs.
//
// This is the proof engine behind the paper's Requirement 1 ("correct
// functionality"): every fingerprinted copy is checked equivalent to the
// original design.
package cec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/aig"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/sim"
)

// ErrBudgetExhausted is wrapped by Check/Session.Verify errors when the SAT
// search ran out of its MaxConflicts budget (or a sat.budget fault fired)
// before reaching a verdict. Callers distinguish it from structural errors
// with errors.Is: a budget exhaustion is retryable — with a larger budget,
// or by degrading to a simulation spot-check, as the daemon's verification
// circuit breaker does.
var ErrBudgetExhausted = errors.New("cec: SAT conflict budget exhausted")

// Options tunes the checker.
type Options struct {
	// SimWords is the number of 64-pattern random-simulation words used as
	// a refutation pre-pass (0 disables the pre-pass).
	SimWords int
	// Seed drives the random pre-pass.
	Seed int64
	// MaxConflicts bounds the SAT search; ≤0 means unlimited.
	MaxConflicts int64
}

// DefaultOptions: 16 words (1024 patterns) of simulation, unlimited SAT.
func DefaultOptions() Options { return Options{SimWords: 16, Seed: 1} }

// Verdict reports the outcome of an equivalence check.
type Verdict struct {
	Equivalent bool
	// Proved is true when the verdict is backed by a SAT proof or a SAT
	// counterexample, false when only simulation evidence exists (cannot
	// happen with the default flow, which always finishes with SAT).
	Proved bool
	// Counterexample, when not nil, assigns each PI (in PI order) a value
	// demonstrating inequivalence.
	Counterexample []bool
	// PO is the name of a differing output for the counterexample.
	PO string
	// Conflicts is the SAT effort this check consumed (0 when simulation or
	// structural collapse settled it without a SAT call). It is populated on
	// budget-exhaustion errors too, so budgeted callers — the red-team
	// attacker charging strip-proofs against a total conflict budget — can
	// account for work that reached no verdict.
	Conflicts int64
}

// EncodeNodes Tseitin-encodes circuit c into solver s and returns the
// solver variable of every node, indexed by NodeID. piVars supplies
// pre-allocated variables for the PIs (shared between the two sides of a
// miter); it is keyed by PI name and must hold every PI of c. Callers that
// constrain internal signals — the SDC prover asking whether a gate's fanin
// pair can take a value (internal/sdc) — use it directly.
func EncodeNodes(s *sat.Solver, c *circuit.Circuit, piVars map[string]int) ([]int, error) {
	sink := &cnf{s: s}
	nodeVar := make([]int, len(c.Nodes))
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		nd := &c.Nodes[id]
		if nd.IsPI {
			v, ok := piVars[nd.Name]
			if !ok {
				return nil, fmt.Errorf("cec: no shared variable for PI %q", nd.Name)
			}
			nodeVar[id] = v
			continue
		}
		out := s.NewVar()
		nodeVar[id] = out
		in := make([]int, len(nd.Fanin))
		for i, f := range nd.Fanin {
			in[i] = nodeVar[f]
		}
		if err := encodeGate(sink, nd.Kind, out, in); err != nil {
			return nil, fmt.Errorf("cec: node %q: %w", nd.Name, err)
		}
	}
	return nodeVar, nil
}

// Encode Tseitin-encodes circuit c into solver s over the shared primary
// input variables piVars (keyed by PI name; every PI of c must be present)
// and returns one literal per primary output, in PO order. It is the
// building block for custom miters beyond plain equivalence — the red-team
// DIP attack encodes one keyed circuit twice over shared inputs and joins
// the copies with a key-inequality clause (internal/redteam). Check and
// Session remain the one-stop equivalence checkers.
func Encode(s *sat.Solver, c *circuit.Circuit, piVars map[string]int) ([]int, error) {
	nodeVar, err := EncodeNodes(s, c, piVars)
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(c.POs))
	for i := range c.POs {
		pos[i] = nodeVar[c.POs[i].Driver]
	}
	return pos, nil
}

// cnf is where encodeGate writes a formula. With a solver set, variables
// and clauses go straight into it. Without one, they are recorded in buf as
// a flat clause stream: the variable count, then each clause's literals and
// a 0 terminator, every number a little-endian int32. Two formulas with the
// same bytes are the same CNF, clause for clause, so the window certifier
// uses buf itself as the key of the formulas it has proved, and load replays
// it into a solver in the order it was written.
//
// It is a concrete type, not an interface or a type parameter: through
// either of those every AddClause call's variadic literal slice escapes to
// the heap.
type cnf struct {
	s    *sat.Solver
	vars int
	buf  []byte
	long []int // encodeGate's scratch for its one wide clause
	lits []int // load's scratch
}

// begin starts a recorded formula, keeping buf's allocation.
func (f *cnf) begin() {
	f.vars = 0
	f.buf = append(f.buf[:0], 0, 0, 0, 0) // the variable count, set by bytes
}

// NewVar allocates a fresh variable and returns its (1-based) index.
func (f *cnf) NewVar() int {
	if f.s != nil {
		return f.s.NewVar()
	}
	f.vars++
	return f.vars
}

// AddClause adds a clause in DIMACS literal convention, as sat.Solver's
// AddClause does.
func (f *cnf) AddClause(lits ...int) error {
	if f.s != nil {
		return f.s.AddClause(lits...)
	}
	for _, l := range lits {
		if l == 0 {
			return errors.New("cec: zero literal")
		}
		f.buf = binary.LittleEndian.AppendUint32(f.buf, uint32(int32(l)))
	}
	f.buf = binary.LittleEndian.AppendUint32(f.buf, 0)
	return nil
}

// bytes returns the recorded formula, variable count included. It aliases
// buf until the next begin.
func (f *cnf) bytes() []byte {
	binary.LittleEndian.PutUint32(f.buf, uint32(f.vars))
	return f.buf
}

// load replays the recorded formula into s, a fresh or Reset solver: first
// every variable, then the clauses in the order they were added.
func (f *cnf) load(s *sat.Solver) error {
	b := f.bytes()
	for range f.vars {
		s.NewVar()
	}
	lits := f.lits[:0]
	for i := 4; i < len(b); i += 4 {
		if l := int(int32(binary.LittleEndian.Uint32(b[i:]))); l != 0 {
			lits = append(lits, l)
			continue
		}
		if err := s.AddClause(lits...); err != nil {
			return err
		}
		lits = lits[:0]
	}
	f.lits = lits
	return nil
}

// encodeGate adds the Tseitin clauses for out = kind(in...).
func encodeGate(s *cnf, kind logic.Kind, out int, in []int) error {
	switch kind {
	case logic.Const0:
		return s.AddClause(-out)
	case logic.Const1:
		return s.AddClause(out)
	case logic.Buf:
		if err := s.AddClause(-in[0], out); err != nil {
			return err
		}
		return s.AddClause(in[0], -out)
	case logic.Inv:
		if err := s.AddClause(in[0], out); err != nil {
			return err
		}
		return s.AddClause(-in[0], -out)
	case logic.And, logic.Nand:
		y := out
		if kind == logic.Nand {
			// Encode an AND into a fresh variable, then out = ¬y.
			y = s.NewVar()
			if err := s.AddClause(y, out); err != nil {
				return err
			}
			if err := s.AddClause(-y, -out); err != nil {
				return err
			}
		}
		// y → each input; all inputs → y.
		long := s.long[:0]
		for _, x := range in {
			if err := s.AddClause(-y, x); err != nil {
				return err
			}
			long = append(long, -x)
		}
		s.long = append(long, y)
		return s.AddClause(s.long...)
	case logic.Or, logic.Nor:
		y := out
		if kind == logic.Nor {
			y = s.NewVar()
			if err := s.AddClause(y, out); err != nil {
				return err
			}
			if err := s.AddClause(-y, -out); err != nil {
				return err
			}
		}
		long := s.long[:0]
		for _, x := range in {
			if err := s.AddClause(y, -x); err != nil {
				return err
			}
			long = append(long, x)
		}
		s.long = append(long, -y)
		return s.AddClause(s.long...)
	case logic.Xor, logic.Xnor:
		// Chain binary XORs: t1 = in0 ⊕ in1, t2 = t1 ⊕ in2, ...
		acc := in[0]
		for i := 1; i < len(in); i++ {
			var t int
			last := i == len(in)-1
			if last && kind == logic.Xor {
				t = out
			} else {
				t = s.NewVar()
			}
			if err := encodeXor2(s, t, acc, in[i]); err != nil {
				return err
			}
			acc = t
		}
		if kind == logic.Xnor {
			// out = ¬acc.
			if err := s.AddClause(acc, out); err != nil {
				return err
			}
			return s.AddClause(-acc, -out)
		}
		if len(in) == 1 {
			// Degenerate single-input XOR: out = in0 (cannot occur for
			// validated circuits; kept for safety).
			if err := s.AddClause(-in[0], out); err != nil {
				return err
			}
			return s.AddClause(in[0], -out)
		}
		return nil
	}
	return fmt.Errorf("unsupported kind %v", kind)
}

// encodeXor2 encodes t = a ⊕ b.
func encodeXor2(s *cnf, t, a, b int) error {
	for _, cl := range [][]int{
		{-t, a, b},
		{-t, -a, -b},
		{t, -a, b},
		{t, a, -b},
	} {
		if err := s.AddClause(cl...); err != nil {
			return err
		}
	}
	return nil
}

// interfaceCheck verifies the two circuits share PI/PO name sequences.
func interfaceCheck(a, b *circuit.Circuit) error {
	if len(a.PIs) != len(b.PIs) || len(a.POs) != len(b.POs) {
		return fmt.Errorf("cec: interface shape differs (%d/%d PIs, %d/%d POs)",
			len(a.PIs), len(b.PIs), len(a.POs), len(b.POs))
	}
	for i := range a.PIs {
		if a.Nodes[a.PIs[i]].Name != b.Nodes[b.PIs[i]].Name {
			return fmt.Errorf("cec: PI %d named %q vs %q", i, a.Nodes[a.PIs[i]].Name, b.Nodes[b.PIs[i]].Name)
		}
	}
	for i := range a.POs {
		if a.POs[i].Name != b.POs[i].Name {
			return fmt.Errorf("cec: PO %d named %q vs %q", i, a.POs[i].Name, b.POs[i].Name)
		}
	}
	return nil
}

// Check decides whether circuits a and b (same PI/PO interface) compute the
// same function on every output.
func Check(a, b *circuit.Circuit, opts Options) (Verdict, error) {
	return CheckCtx(context.Background(), a, b, opts)
}

// CheckCtx is Check with cooperative cancellation: when ctx is done the SAT
// search stops at its next poll and the context error is returned.
func CheckCtx(ctx context.Context, a, b *circuit.Circuit, opts Options) (Verdict, error) {
	mOneShotChecks.Inc()
	sp := obs.Start("cec.check")
	defer sp.End()
	if err := interfaceCheck(a, b); err != nil {
		return Verdict{}, err
	}
	// Shared-AIG miter: strash both circuits into one AIG over name-shared
	// primary inputs, so any cone the two sides compute identically — up to
	// complement — collapses onto one node before CNF exists. Outputs whose
	// edges coincide are proved equal by construction and never encoded; a
	// fully-collapsing miter (e.g. a resynthesis round trip) is discharged
	// with no SAT call at all. FoldInto handles every gate kind, so it only
	// fails on a combinational cycle.
	g := aig.New("miter")
	piRef := make(map[string]aig.Ref, len(a.PIs))
	ra, err := aig.FoldInto(g, a, piRef)
	if err != nil {
		return Verdict{}, err
	}
	rb, err := aig.FoldInto(g, b, piRef)
	if err != nil {
		return Verdict{}, err
	}
	p := g.Pack()

	// Simulation pre-pass on the packed miter: a mismatch is a proved
	// counterexample. The miter's PIs are a's, in a's order, and the scan
	// runs PO → word → lane, so the (PO, counterexample) pair is the one
	// sim.Compare reports on the same vectors.
	if n := opts.SimWords; n > 0 {
		vec := sim.Random(len(a.PIs), n, opts.Seed)
		val := make([]uint64, p.NumNodes()*n)
		p.SimInto(val, vec.Words, n)
		for i := range a.POs {
			xa, ma := p.Stream(val, n, ra[a.POs[i].Driver])
			xb, mb := p.Stream(val, n, rb[b.POs[i].Driver])
			for w := range xa {
				if diff := xa[w] ^ ma ^ xb[w] ^ mb; diff != 0 {
					lane := uint(bits.TrailingZeros64(diff))
					cex := make([]bool, len(a.PIs))
					for j := range cex {
						cex[j] = vec.Words[j][w]>>lane&1 == 1
					}
					return Verdict{Equivalent: false, Proved: true, Counterexample: cex, PO: a.POs[i].Name}, nil
				}
			}
		}
	}

	s := sat.New()
	s.MaxConflicts = opts.MaxConflicts
	lits, err := encodeAIG(s, p)
	if err != nil {
		return Verdict{}, err
	}
	// Miter: or over outputs of (outA ⊕ outB) must be satisfiable for
	// inequivalence.
	diff := make([]int, 0, len(a.POs))
	sink := &cnf{s: s}
	for i := range a.POs {
		la := lits.lit(ra[a.POs[i].Driver])
		lb := lits.lit(rb[b.POs[i].Driver])
		if la == lb {
			continue // same AIG edge: equal by construction
		}
		x := s.NewVar()
		if err := encodeXor2(sink, x, la, lb); err != nil {
			return Verdict{}, err
		}
		diff = append(diff, x)
	}
	if len(diff) == 0 {
		return Verdict{Equivalent: true, Proved: true}, nil
	}
	if err := s.AddClause(diff...); err != nil {
		return Verdict{}, err
	}
	st, err := s.SolveCtx(ctx)
	if err != nil {
		return Verdict{Conflicts: s.Conflicts()}, err
	}
	switch st {
	case sat.Unsat:
		return Verdict{Equivalent: true, Proved: true, Conflicts: s.Conflicts()}, nil
	case sat.Sat:
		cex := make([]bool, len(a.PIs))
		for i, pi := range a.PIs {
			cex[i] = s.Value(lits.lit(piRef[a.Nodes[pi].Name]))
		}
		po := findDifferingPO(a, b, cex)
		return Verdict{Equivalent: false, Proved: true, Counterexample: cex, PO: po, Conflicts: s.Conflicts()}, nil
	default:
		return Verdict{Conflicts: s.Conflicts()}, fmt.Errorf("%w (%d conflicts)", ErrBudgetExhausted, opts.MaxConflicts)
	}
}

// aigLits maps AIG nodes to solver variables; lit resolves an edge to a
// signed literal.
type aigLits struct{ vars []int }

func (l aigLits) lit(r aig.Ref) int {
	v := l.vars[r.Node()]
	if r.Compl() {
		return -v
	}
	return v
}

// encodeAIG lowers a packed AIG into CNF: one variable per node, the
// constant node asserted true, and three clauses per AND (v ↔ l0 ∧ l1).
// Primary inputs get free variables.
func encodeAIG(s *sat.Solver, p *aig.Packed) (aigLits, error) {
	lits := aigLits{vars: make([]int, p.NumNodes())}
	for i := range lits.vars {
		lits.vars[i] = s.NewVar()
	}
	if err := s.AddClause(lits.vars[0]); err != nil {
		return aigLits{}, err
	}
	for i := 0; i < p.NumAnds(); i++ {
		n, f0, f1 := p.And(i)
		v, l0, l1 := lits.vars[n], lits.lit(f0), lits.lit(f1)
		if err := s.AddClause(-v, l0); err != nil {
			return aigLits{}, err
		}
		if err := s.AddClause(-v, l1); err != nil {
			return aigLits{}, err
		}
		if err := s.AddClause(v, -l0, -l1); err != nil {
			return aigLits{}, err
		}
	}
	return lits, nil
}

// findDifferingPO replays a counterexample to name a differing output. The
// replay runs a single-word pass of the packed AIG kernel (aig.View.EvalPOs)
// on each side; both circuits have already been folded into the miter, so
// their views cannot fail to build.
func findDifferingPO(a, b *circuit.Circuit, cex []bool) string {
	va, errA := aig.ViewFor(a)
	vb, errB := aig.ViewFor(b)
	if errA != nil || errB != nil {
		return ""
	}
	oa := va.EvalPOs(cex, nil)
	ob := vb.EvalPOs(cex, nil)
	for i := range oa {
		if oa[i] != ob[i] {
			return a.POs[i].Name
		}
	}
	return ""
}

// MustEquivalent is a test/assertion helper: it returns nil when a ≡ b and a
// descriptive error (including a counterexample) otherwise.
func MustEquivalent(a, b *circuit.Circuit) error {
	v, err := Check(a, b, DefaultOptions())
	if err != nil {
		return err
	}
	if !v.Equivalent {
		return fmt.Errorf("cec: %s and %s differ on PO %q for input %v", a.Name, b.Name, v.PO, v.Counterexample)
	}
	return nil
}
