package cec

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/aig"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/sim"
)

// Observability counters (internal/obs), aggregated across every session
// and one-shot check in the process. Miter size before fraiging and SAT
// sweeping is miter_vars + nodes_fraiged + nodes_merged (each merge avoided
// one variable); after them it is miter_vars.
var (
	mSessions         = obs.NewCounter("cec", "sessions_built")
	mMiterVars        = obs.NewCounter("cec", "miter_vars")
	mMiterClauses     = obs.NewCounter("cec", "miter_clauses")
	mNodesHashed      = obs.NewCounter("cec", "nodes_hashed")
	mNodesFraiged     = obs.NewCounter("cec", "nodes_fraiged")
	mNodesMerged      = obs.NewCounter("cec", "nodes_merged")
	mSweepSolves      = obs.NewCounter("cec", "sweep_solves")
	mVerifies         = obs.NewCounter("cec", "session_verifies")
	mUniversalSolves  = obs.NewCounter("cec", "universal_solves")
	mAssumptionSolves = obs.NewCounter("cec", "assumption_solves")
	mConesClosed      = obs.NewCounter("cec", "cones_closed")
	mOneShotChecks    = obs.NewCounter("cec", "oneshot_checks")
)

// This file implements the incremental verification engine: instead of
// re-encoding a fresh miter for every fingerprint copy, a Session encodes
// the master circuit once against a fully-instrumented instance in which
// every candidate modification is present but gated by a fresh activation
// literal. Verifying one copy then costs a single Solve(assumptions...)
// call that pins each activation literal, and conflict clauses learned
// while verifying one copy remain valid for (and speed up) all later
// copies, because clauses learned under assumptions are implied by the
// formula alone.

// Lit is a signed reference to a master-circuit node: the modification
// literal is the node's value, or its complement when Neg is set.
type Lit struct {
	Node circuit.NodeID
	Neg  bool
}

// Mod describes one candidate modification of a slot's gate: the gate's
// function becomes Kind(original fanins..., Lits...). This matches both the
// catalogue's append-literal form (Kind == original kind) and the
// convert-single form (INV→NAND/NOR, BUF→AND/OR).
type Mod struct {
	Kind logic.Kind
	// Lits is only read, never written: core.Analysis.Slots shares the
	// catalogue's slices.
	Lits []Lit
}

// Slot is one independently-selectable fingerprint position: a target gate
// plus its candidate modifications. A choice of -1 leaves the gate in its
// original form.
type Slot struct {
	Gate    circuit.NodeID
	Options []Mod
}

// SessionStats reports the size and work of a session.
type SessionStats struct {
	Vars        int // solver variables allocated
	Clauses     int // problem clauses added
	Hashed      int // nodes deduplicated by structural hashing
	Fraiged     int // nodes aliased to AIG-identical earlier encodings (no SAT)
	Merged      int // nodes merged by simulation-guided SAT sweeping
	SweepSolves int // bounded equivalence queries attempted by sweeping
	Verifies    int // Verify calls served
	ClosedPOs   int // miter outputs proved unreachable under all activations

	// UniversalSolves and AssumptionSolves split the Verify-phase SAT
	// calls: one-time all-activations-free cone closings vs. per-choice
	// assumption solves over the POs that stayed open.
	UniversalSolves  int
	AssumptionSolves int
	// BuildDecisions/BuildPropagations/BuildConflicts freeze the SAT work
	// spent constructing the miter (dominated by SAT sweeping); Decisions/
	// Propagations/Conflicts count the verify phase alone — the solver's
	// counters are reset (sat.Solver.ResetStats) when construction ends,
	// so reused-solver stats no longer conflate the two phases.
	BuildDecisions, BuildPropagations, BuildConflicts int64
	Decisions, Propagations, Conflicts                int64
}

// Session is a persistent miter between a master circuit and its
// fully-instrumented fingerprint instance. Build it once per analysis with
// NewSession, then call Verify for each copy.
//
// Session is the fallback and the test oracle of the window certificates
// (Certifier): core.Verifier builds one only when some window of a
// catalogue fails to certify, and the oracle tests hold every certificate
// verdict against a session's. Unlike a certificate, it decides each copy
// exactly and returns counterexamples.
//
// Contract:
//   - The session snapshots the master's Version at build time; Verify
//     returns an error once the master has been mutated, after which the
//     session must be rebuilt. The slot set is likewise fixed at build.
//   - Verify is safe for concurrent use (an internal mutex serializes
//     solver access) and is deterministic: the same choice on the same
//     session yields the same verdict, and equivalent-copy verdicts are
//     identical to the one-shot Check path.
//   - Counterexamples refer to master PI order, exactly as in Check.
type Session struct {
	mu      sync.Mutex
	master  *circuit.Circuit
	version uint64
	slots   []Slot
	opts    Options

	s       *sat.Solver
	out     cnf     // encodeGate's sink: s itself
	piVars  []int   // PI variable per master PI index
	act     [][]int // activation variable per slot, per option
	diffPO  []int   // per PO: XOR-difference variable, 0 when unaffected
	trivial bool    // no slot reaches any PO: always equivalent

	// Retained build products for cone-local universal closing: the union
	// topological order, the affected-region mask, and the region encoder,
	// which also maps each slot gate to its slot index.
	order    []circuit.NodeID
	affected []bool
	enc      *regionEncoder

	// SAT work done by cone-local closing solvers, folded into the
	// verify-phase totals by Stats (the shared solver's counters cannot see
	// the throwaway per-cone solvers).
	coneDec, coneProp, coneConf int64

	// Per diff PO, lazily resolved universal verdicts. A PO is closed once
	// Solve(diffPO) with ALL activation variables free returns Unsat: no
	// activation combination — a fortiori no catalogued choice — can ever
	// flip it, so every later Verify skips its cone outright. A PO is open
	// when that universal solve is Sat (some combination differs); open POs
	// fall back to a per-choice assumption solve on every Verify.
	poClosed []bool
	poOpen   []bool

	stats SessionStats
}

// sweepConflictBudget bounds each SAT-sweeping equivalence attempt; failed
// or timed-out proofs simply skip the merge.
const sweepConflictBudget = 200

// NewSession builds the persistent miter for master with the given slots.
// It fails if the slot set is malformed, if a modification literal would
// create a combinational cycle through a slot gate (callers should fall
// back to one-shot Check in that case), or if the netlist is cyclic.
func NewSession(master *circuit.Circuit, slots []Slot, opts Options) (*Session, error) {
	if err := validateSlots(master, slots); err != nil {
		return nil, err
	}
	s := sat.New()
	sess := &Session{
		master:  master,
		version: master.Version(),
		slots:   slots,
		opts:    opts,
		s:       s,
		out:     cnf{s: s},
	}
	sp := obs.Start("cec.session_build")
	err := sess.build()
	sp.End()
	if err != nil {
		return nil, err
	}
	return sess, nil
}

func validateSlots(master *circuit.Circuit, slots []Slot) error {
	seen := make([]bool, len(master.Nodes))
	for i, sl := range slots {
		if int(sl.Gate) < 0 || int(sl.Gate) >= len(master.Nodes) {
			return fmt.Errorf("cec: slot %d: gate %d out of range", i, sl.Gate)
		}
		if master.Nodes[sl.Gate].IsPI {
			return fmt.Errorf("cec: slot %d: gate %q is a primary input", i, master.Nodes[sl.Gate].Name)
		}
		if seen[sl.Gate] {
			return fmt.Errorf("cec: slot %d: gate %q claimed by an earlier slot", i, master.Nodes[sl.Gate].Name)
		}
		seen[sl.Gate] = true
		for v, m := range sl.Options {
			if !m.Kind.Valid() {
				return fmt.Errorf("cec: slot %d option %d: invalid kind", i, v)
			}
			for _, l := range m.Lits {
				if int(l.Node) < 0 || int(l.Node) >= len(master.Nodes) {
					return fmt.Errorf("cec: slot %d option %d: literal node %d out of range", i, v, l.Node)
				}
				if l.Node == sl.Gate {
					return fmt.Errorf("cec: slot %d option %d: literal is the slot gate itself", i, v)
				}
			}
		}
	}
	return nil
}

// unionGraph is the union graph's successor lists in CSR form: node x's
// successors are succ[start[x]:start[x+1]] — the gates reading x as a fanin,
// in ascending ID order and once per pin, then the slot gates reading x as
// a modification literal, in slot, option and literal order.
type unionGraph struct {
	start []int32
	succ  []circuit.NodeID
}

func (g *unionGraph) succs(x circuit.NodeID) []circuit.NodeID {
	return g.succ[g.start[x]:g.start[x+1]]
}

// unionTopo computes a topological order of the union graph: all master
// fanin edges plus one edge lit.Node → slot.Gate for every modification
// literal. The instrumented instance reads its literals from the instance
// netlist, so a literal lying in the fanout cone of another slot makes the
// master's own topological order insufficient. A cycle in the union graph
// means some choice combination would be combinational-cyclic; the session
// refuses it. It also returns the graph, and slots must be valid
// (validateSlots).
//
// The order is Kahn's: PIs, then the other sources in ID order, then each
// node as its last predecessor is taken, in first-in first-out order.
func unionTopo(c *circuit.Circuit, slots []Slot) ([]circuit.NodeID, unionGraph, error) {
	n := len(c.Nodes)
	indeg := make([]int32, n)
	// start[x+1] counts x's successors, then a prefix sum ends each list.
	start := make([]int32, n+1)
	for i := range c.Nodes {
		for _, f := range c.Nodes[i].Fanin {
			start[f+1]++
		}
		indeg[i] = int32(len(c.Nodes[i].Fanin))
	}
	for _, sl := range slots {
		for _, m := range sl.Options {
			for _, l := range m.Lits {
				start[l.Node+1]++
				indeg[sl.Gate]++
			}
		}
	}
	for x := range n {
		start[x+1] += start[x]
	}
	// Fill each list from its start, in the order the edges are listed;
	// that leaves start[x] at x's end, so the starts then shift back.
	succ := make([]circuit.NodeID, start[n])
	for i := range c.Nodes {
		for _, f := range c.Nodes[i].Fanin {
			succ[start[f]] = circuit.NodeID(i)
			start[f]++
		}
	}
	for _, sl := range slots {
		for _, m := range sl.Options {
			for _, l := range m.Lits {
				succ[start[l.Node]] = sl.Gate
				start[l.Node]++
			}
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	g := unionGraph{start: start, succ: succ}

	// order is its own queue: order[head:] are the nodes taken but not yet
	// expanded.
	order := make([]circuit.NodeID, 0, n)
	for _, pi := range c.PIs {
		if indeg[pi] == 0 {
			order = append(order, pi)
		}
	}
	for i := range c.Nodes {
		if !c.Nodes[i].IsPI && indeg[i] == 0 {
			order = append(order, circuit.NodeID(i))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, s := range g.succs(order[head]) {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) != n {
		return nil, unionGraph{}, fmt.Errorf("cec: modification literals create a combinational cycle (%d of %d nodes ordered); fall back to one-shot Check", len(order), n)
	}
	return order, g, nil
}

// structKey builds a canonical key for (kind, input literals): inputs are
// sorted, so the symmetric gate vocabulary hashes order-independently.
func structKey(buf []byte, kind logic.Kind, in []int) []byte {
	sorted := append([]int(nil), in...)
	sort.Ints(sorted)
	buf = append(buf[:0], byte(kind))
	var tmp [binary.MaxVarintLen64]byte
	for _, l := range sorted {
		n := binary.PutVarint(tmp[:], int64(l))
		buf = append(buf, tmp[:n]...)
	}
	return buf
}

// sweeper carries the simulation signatures and candidate buckets for the
// SAT-sweeping pre-pass.
type sweeper struct {
	sig     [][]uint64 // canonical signature per master node
	phase   []bool     // true when the signature was complemented
	buckets map[uint64][]sweepEntry
}

type sweepEntry struct {
	node  circuit.NodeID
	v     int // signed representative literal
	phase bool
}

// newSweeperAIG simulates the master on random vectors with the packed
// word-parallel AIG kernel and canonicalizes each node's bit-signature up to
// complement, so functionally-equal and antivalent nodes land in the same
// bucket. A circuit node's stream is its AIG edge's positive-phase stream
// XOR the edge mask, which equals the gate-level value on the same vectors.
func newSweeperAIG(v *aig.View, nWords int, seed int64) *sweeper {
	c := v.C
	vec := sim.Random(len(c.PIs), nWords, seed)
	sw := &sweeper{
		sig:     make([][]uint64, len(c.Nodes)),
		phase:   make([]bool, len(c.Nodes)),
		buckets: make(map[uint64][]sweepEntry),
	}
	v.WithSim(vec.Words, nWords, func(val []uint64) {
		for id := range c.Nodes {
			words, mask := v.P.Stream(val, nWords, v.Refs[id])
			canon := make([]uint64, nWords)
			for w := range canon {
				canon[w] = words[w] ^ mask
			}
			if nWords > 0 && canon[0]&1 == 1 {
				for i := range canon {
					canon[i] = ^canon[i]
				}
				sw.phase[id] = true
			}
			sw.sig[id] = canon
		}
	})
	return sw
}

func sigHash(sig []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range sig {
		h ^= w
		h *= 1099511628211
	}
	return h
}

func sigEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// trySweep attempts to merge node (with fresh variable v) into an earlier
// representative with the same canonical signature, proving equivalence (or
// antivalence) with two bounded assumption solves. It returns the signed
// literal the node should use from now on.
func (sess *Session) trySweep(sw *sweeper, id circuit.NodeID, v int) int {
	sig := sw.sig[id]
	h := sigHash(sig)
	for _, e := range sw.buckets[h] {
		if !sigEqual(sw.sig[e.node], sig) {
			continue
		}
		// Same canonical signature: candidate for var ≡ ±rep.
		rep := e.v
		if sw.phase[id] != e.phase {
			rep = -rep
		}
		sess.stats.SweepSolves += 2
		if sess.provedEqual(v, rep) {
			sess.stats.Merged++
			return rep
		}
	}
	sw.buckets[h] = append(sw.buckets[h], sweepEntry{node: id, v: v, phase: sw.phase[id]})
	return v
}

// provedEqual runs the two bounded queries Unsat(a ∧ ¬b) and Unsat(¬a ∧ b);
// both together prove a ≡ b. Timeouts and counterexamples both report false.
func (sess *Session) provedEqual(a, b int) bool {
	s := sess.s
	saved := s.MaxConflicts
	defer func() { s.MaxConflicts = saved }()
	for _, pair := range [2][2]int{{a, -b}, {-a, b}} {
		s.MaxConflicts = s.Conflicts() + sweepConflictBudget
		st := s.Solve(pair[0], pair[1])
		// A Sat result leaves the model on the trail; clause addition
		// resumes after this, so drop back to the root level.
		s.BacktrackAll()
		if st != sat.Unsat {
			return false
		}
	}
	return true
}

// encodeHashed returns a signed literal for kind(in...), reusing an earlier
// structurally-identical encoding when possible.
func (sess *Session) encodeHashed(table map[string]int, keyBuf *[]byte, kind logic.Kind, in []int) (int, error) {
	*keyBuf = structKey(*keyBuf, kind, in)
	if v, ok := table[string(*keyBuf)]; ok {
		sess.stats.Hashed++
		return v, nil
	}
	out := sess.s.NewVar()
	if err := encodeGate(&sess.out, kind, out, in); err != nil {
		return 0, err
	}
	table[string(*keyBuf)] = out
	return out, nil
}

// build constructs the full miter: swept master encoding, instrumented
// instance over the affected region, and the asserted output-difference
// disjunction.
func (sess *Session) build() error {
	c := sess.master
	order, g, err := unionTopo(c, sess.slots)
	if err != nil {
		return err
	}

	// Affected region: every node whose instance value can differ from the
	// master's — the slot gates and their transitive fanout in the union
	// graph (literal edges included, because an instance gate reads its
	// literals from the instance netlist).
	enc := newRegionEncoder(c, sess.slots)
	affected := make([]bool, len(c.Nodes))
	{
		stack := make([]circuit.NodeID, 0, len(sess.slots))
		for _, sl := range sess.slots {
			if !affected[sl.Gate] {
				affected[sl.Gate] = true
				stack = append(stack, sl.Gate)
			}
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range g.succs(n) {
				if !affected[s] {
					affected[s] = true
					stack = append(stack, s)
				}
			}
		}
	}

	// Fraig pre-pass: decompose the master into its strashed AIG once. Two
	// circuit nodes whose edges address the same AIG node compute, by the
	// soundness of structural hashing, the same function (up to the edges'
	// complement bits), so the second one can alias the first one's solver
	// literal — the same merge SAT sweeping buys with two bounded solves,
	// obtained here for free and proved by construction rather than search.
	// fraigRep maps AIG node index → the signed literal of its positive
	// phase.
	view, err := aig.ViewFor(c)
	if err != nil {
		return err
	}
	fraigRefs := view.Refs
	fraigRep := make(map[int]int, len(c.Nodes))

	var sw *sweeper
	if sess.opts.SimWords > 0 {
		sw = newSweeperAIG(view, sess.opts.SimWords, sess.opts.Seed)
	}

	// Master side, with fraiging, structural hashing and SAT sweeping.
	table := make(map[string]int, 2*len(c.Nodes))
	keyBuf := make([]byte, 0, 64)
	nodeVar := make([]int, len(c.Nodes))
	sess.piVars = make([]int, len(c.PIs))
	piIndex := make(map[circuit.NodeID]int, len(c.PIs))
	for i, pi := range c.PIs {
		piIndex[pi] = i
	}
	in := make([]int, 0, 8)
	for _, id := range order {
		nd := &c.Nodes[id]
		if nd.IsPI {
			v := sess.s.NewVar()
			nodeVar[id] = v
			sess.piVars[piIndex[id]] = v
			fraigRep[fraigRefs[id].Node()] = v
			// Register the PI as a sweep representative (so buffers of a
			// PI can merge into it); never attempt to merge PIs themselves,
			// as a free input is equivalent to no prior function.
			if sw != nil {
				h := sigHash(sw.sig[id])
				sw.buckets[h] = append(sw.buckets[h], sweepEntry{node: id, v: v, phase: sw.phase[id]})
			}
			continue
		}
		// Fraig alias: an already-encoded node computes the same AIG node, so
		// this node is its (possibly complemented) literal; no clauses needed.
		// The constant node (index 0) is excluded — it has no variable to
		// alias and constant-function gates encode fine below.
		if n := fraigRefs[id].Node(); n != 0 {
			if rep, ok := fraigRep[n]; ok {
				if fraigRefs[id].Compl() {
					rep = -rep
				}
				nodeVar[id] = rep
				sess.stats.Fraiged++
				continue
			}
		}
		in = in[:0]
		for _, f := range nd.Fanin {
			in = append(in, nodeVar[f])
		}
		keyBuf = structKey(keyBuf, nd.Kind, in)
		if v, ok := table[string(keyBuf)]; ok {
			sess.stats.Hashed++
			nodeVar[id] = v
		} else {
			v = sess.s.NewVar()
			if err := encodeGate(&sess.out, nd.Kind, v, in); err != nil {
				return fmt.Errorf("cec: master node %q: %w", nd.Name, err)
			}
			table[string(keyBuf)] = v
			if sw != nil {
				v = sess.trySweep(sw, id, v)
			}
			nodeVar[id] = v
		}
		if n := fraigRefs[id].Node(); n != 0 {
			rep := nodeVar[id]
			if fraigRefs[id].Compl() {
				rep = -rep
			}
			fraigRep[n] = rep
		}
	}

	// Instance side: only the affected region is re-encoded; everything
	// else shares the master's variables verbatim (the strongest merge).
	instVar := make([]int, len(c.Nodes))
	iv := func(f circuit.NodeID) int {
		if affected[f] {
			return instVar[f]
		}
		return nodeVar[f]
	}
	sess.act = make([][]int, len(sess.slots))
	for _, id := range order {
		if !affected[id] {
			continue
		}
		nd := &c.Nodes[id]
		in = in[:0]
		for _, f := range nd.Fanin {
			in = append(in, iv(f))
		}
		si := enc.slotOf[id]
		if si < 0 {
			v, err := sess.encodeHashed(table, &keyBuf, nd.Kind, in)
			if err != nil {
				return fmt.Errorf("cec: instance node %q: %w", nd.Name, err)
			}
			instVar[id] = v
			continue
		}
		// Slot gate: encode the base function and every option, then tie
		// the observable output o to the selected one via activation
		// literals: a_v → (o ↔ o_v), and (∧ ¬a_v) → (o ↔ o_base).
		sl := &sess.slots[si]
		base, err := sess.encodeHashed(table, &keyBuf, nd.Kind, in)
		if err != nil {
			return fmt.Errorf("cec: slot gate %q: %w", nd.Name, err)
		}
		o := sess.s.NewVar()
		instVar[id] = o
		acts := make([]int, len(sl.Options))
		for vi, m := range sl.Options {
			optIn := append(make([]int, 0, len(in)+len(m.Lits)), in...)
			for _, l := range m.Lits {
				lv := iv(l.Node)
				if l.Neg {
					lv = -lv
				}
				optIn = append(optIn, lv)
			}
			ov, err := sess.encodeHashed(table, &keyBuf, m.Kind, optIn)
			if err != nil {
				return fmt.Errorf("cec: slot gate %q option %d: %w", nd.Name, vi, err)
			}
			a := sess.s.NewVar()
			acts[vi] = a
			// a → (o ↔ o_v)
			if err := sess.s.AddClause(-a, -o, ov); err != nil {
				return err
			}
			if err := sess.s.AddClause(-a, o, -ov); err != nil {
				return err
			}
		}
		// (¬a_0 ∧ … ∧ ¬a_k) → (o ↔ o_base), as two clauses with all
		// activation literals positive.
		cl := make([]int, 0, len(acts)+2)
		cl = append(cl, acts...)
		if err := sess.s.AddClause(append(cl, -o, base)...); err != nil {
			return err
		}
		cl = cl[:len(acts)]
		if err := sess.s.AddClause(append(cl, o, -base)...); err != nil {
			return err
		}
		sess.act[si] = acts
	}

	// Miter outputs: only POs whose instance driver differs structurally
	// can ever differ; the rest are skipped outright. No global OR clause is
	// added — Verify output-splits, assuming one difference variable per
	// solve, so each proof works a single (usually small) cone and every
	// learned clause carries over to the remaining POs and later verifies.
	sess.diffPO = make([]int, len(c.POs))
	trivial := true
	for i, po := range c.POs {
		a, b := nodeVar[po.Driver], iv(po.Driver)
		if a == b {
			continue
		}
		x := sess.s.NewVar()
		if err := encodeXor2(&sess.out, x, a, b); err != nil {
			return err
		}
		sess.diffPO[i] = x
		trivial = false
	}
	sess.trivial = trivial
	sess.poClosed = make([]bool, len(c.POs))
	sess.poOpen = make([]bool, len(c.POs))
	sess.order, sess.affected, sess.enc = order, affected, enc
	sess.stats.Vars = sess.s.NumVars()
	sess.stats.Clauses = sess.s.NumClauses()
	// Freeze the build-phase SAT work and zero the solver counters, so the
	// session's verify-phase stats (and per-copy attribution by callers)
	// start from a clean slate on the reused solver.
	sess.stats.BuildDecisions, sess.stats.BuildPropagations, sess.stats.BuildConflicts = sess.s.Stats()
	sess.s.ResetStats()
	mSessions.Inc()
	mMiterVars.Add(int64(sess.stats.Vars))
	mMiterClauses.Add(int64(sess.stats.Clauses))
	mNodesHashed.Add(int64(sess.stats.Hashed))
	mNodesFraiged.Add(int64(sess.stats.Fraiged))
	mNodesMerged.Add(int64(sess.stats.Merged))
	mSweepSolves.Add(int64(sess.stats.SweepSolves))
	return nil
}

// Verify decides whether the fingerprint copy selected by choice is
// equivalent to the master. choice has one entry per slot: -1 leaves the
// slot's gate unmodified, v ≥ 0 applies Options[v]. The verdict matches
// what Check(master, instance) would return for the materialized instance.
func (sess *Session) Verify(choice []int) (Verdict, error) {
	return sess.VerifyCtx(context.Background(), choice)
}

// VerifyCtx is Verify with cooperative cancellation. When ctx is done the
// in-flight SAT solve stops at its next poll and the context error is
// returned; the session stays usable — a PO interrupted mid-close is left
// unresolved and is retried on the next call.
func (sess *Session) VerifyCtx(ctx context.Context, choice []int) (Verdict, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.master.Version() != sess.version {
		return Verdict{}, fmt.Errorf("cec: session stale: master circuit was modified (version %d → %d); rebuild the session", sess.version, sess.master.Version())
	}
	if len(choice) != len(sess.slots) {
		return Verdict{}, fmt.Errorf("cec: choice has %d entries for %d slots", len(choice), len(sess.slots))
	}
	assumptions := make([]int, 0, len(choice))
	for i, v := range choice {
		if v < -1 || v >= len(sess.slots[i].Options) {
			return Verdict{}, fmt.Errorf("cec: slot %d: option %d out of range", i, v)
		}
		for vi, a := range sess.act[i] {
			if vi == v {
				assumptions = append(assumptions, a)
			} else {
				assumptions = append(assumptions, -a)
			}
		}
	}
	sess.stats.Verifies++
	mVerifies.Inc()
	if sess.trivial {
		return Verdict{Equivalent: true, Proved: true}, nil
	}
	// The conflict budget, when set, covers the whole verification (all
	// output cones), mirroring the one-shot miter's budget.
	if sess.opts.MaxConflicts > 0 {
		sess.s.MaxConflicts = sess.s.Conflicts() + sess.opts.MaxConflicts
	} else {
		sess.s.MaxConflicts = 0
	}
	// Universal pass: try to close each unresolved PO once and for all by
	// solving its difference with every activation variable left free. Unsat
	// there subsumes all choices, so the cone never needs solving again —
	// for a sound catalogue the first Verify closes every PO and later calls
	// return without touching the solver. A Sat or budget-exhausted outcome
	// marks the PO open; only open POs pay a per-choice solve below. Each
	// closing runs on a throwaway cone-local miter (closeCone) rather than
	// inside the session formula, so the search never leaves the PO's own
	// fanin cone; remaining tracks the conflict budget it consumes, and the
	// shared solver's allowance shrinks to whatever is left. The cone
	// miters of one call share one solver, reset between cones; it is local
	// to the call, so the session retains none of it.
	remaining := sess.opts.MaxConflicts
	var cone *sat.Solver
	for i, x := range sess.diffPO {
		if x == 0 || sess.poClosed[i] || sess.poOpen[i] {
			continue
		}
		sess.stats.UniversalSolves++
		mUniversalSolves.Inc()
		if cone == nil {
			cone = sat.New()
		}
		st, err := sess.closeCone(ctx, cone, i, &remaining)
		if err != nil {
			// Cancelled mid-close: leave the PO unresolved so a later call
			// retries the universal solve.
			return Verdict{}, err
		}
		switch st {
		case sat.Unsat:
			sess.poClosed[i] = true
			sess.stats.ClosedPOs++
			mConesClosed.Inc()
		default:
			sess.poOpen[i] = true
		}
	}
	if sess.opts.MaxConflicts > 0 {
		m := sess.s.Conflicts() + remaining
		if m < 1 {
			// Cone closings spent the whole allowance: any further search
			// must stop at its first conflict.
			m = 1
		}
		sess.s.MaxConflicts = m
	}
	// Per-choice pass over the open POs, output-split: each solve assumes
	// the activation literals plus one difference variable. Learned clauses
	// and the shared assumption-prefix trail persist across cones and calls.
	nAss := len(assumptions)
	for i, x := range sess.diffPO {
		if x == 0 || sess.poClosed[i] {
			continue
		}
		sess.stats.AssumptionSolves++
		mAssumptionSolves.Inc()
		st, err := sess.s.SolveCtx(ctx, append(assumptions[:nAss:nAss], x)...)
		if err != nil {
			return Verdict{}, err
		}
		switch st {
		case sat.Unsat:
			continue
		case sat.Sat:
			cex := make([]bool, len(sess.piVars))
			for pi, v := range sess.piVars {
				cex[pi] = sess.s.Value(v)
			}
			sess.s.BacktrackAll()
			return Verdict{Equivalent: false, Proved: true, Counterexample: cex, PO: sess.master.POs[i].Name}, nil
		default:
			return Verdict{}, fmt.Errorf("%w (%d conflicts)", ErrBudgetExhausted, sess.opts.MaxConflicts)
		}
	}
	return Verdict{Equivalent: true, Proved: true}, nil
}

// closeCone runs one universal closing solve on a throwaway cone-local
// miter: s, reset to a new solver's state, encodes only the transitive
// fanin cone of the PO's driver — master side, instrumented instance side,
// and the activation structure of the slots inside it — instead of
// assuming the difference variable inside the full session formula. Both formulas encode the same
// Boolean functions over the same cone, so Unsat here proves the PO
// unreachable under every activation combination exactly as the global
// solve would, while the search space shrinks from every variable in the
// miter to the cone's few dozen. Sat likewise transfers: a cone model
// extends to a full-circuit model by evaluating the remaining gates in
// topological order, so the PO really is open. When the session carries a
// conflict budget, the solve is bounded by *remaining and its consumption
// is deducted. The cone is a region whose cut is the PIs, encoded by the
// same regionEncoder the window certifier uses.
func (sess *Session) closeCone(ctx context.Context, s *sat.Solver, po int, remaining *int64) (sat.Status, error) {
	c := sess.master
	d := c.POs[po].Driver
	// Cone membership over the union graph: master fanin edges plus, for
	// slot gates, their option literal reads (an instance gate reads its
	// literals from the instance netlist).
	inCone := make([]bool, len(c.Nodes))
	stack := append(make([]circuit.NodeID, 0, 64), d)
	inCone[d] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Nodes[n].Fanin {
			if !inCone[f] {
				inCone[f] = true
				stack = append(stack, f)
			}
		}
		if si := sess.enc.slotOf[n]; si >= 0 {
			for _, m := range sess.slots[si].Options {
				for _, l := range m.Lits {
					if !inCone[l.Node] {
						inCone[l.Node] = true
						stack = append(stack, l.Node)
					}
				}
			}
		}
	}

	var nodes, diff []circuit.NodeID
	for _, id := range sess.order {
		if inCone[id] {
			nodes = append(nodes, id)
			if sess.affected[id] {
				diff = append(diff, id)
			}
		}
	}

	s.Reset()
	if sess.opts.MaxConflicts > 0 {
		if *remaining < 1 {
			return sat.Unknown, nil
		}
		s.MaxConflicts = *remaining
	}
	defer func() {
		dec, prop, conf := s.Stats()
		sess.coneDec += dec
		sess.coneProp += prop
		sess.coneConf += conf
		*remaining -= conf
	}()
	return sess.enc.prove(ctx, s, nodes, diff, []circuit.NodeID{d})
}

// Slots returns the number of slots the session was built with.
func (sess *Session) Slots() int { return len(sess.slots) }

// Stats returns a snapshot of the session's counters. The solver-level
// Decisions/Propagations/Conflicts cover the verify phase only; build-phase
// work is frozen in the Build* fields.
func (sess *Session) Stats() SessionStats {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st := sess.stats
	st.Vars = sess.s.NumVars()
	st.Clauses = sess.s.NumClauses()
	st.Decisions, st.Propagations, st.Conflicts = sess.s.Stats()
	st.Decisions += sess.coneDec
	st.Propagations += sess.coneProp
	st.Conflicts += sess.coneConf
	return st
}
