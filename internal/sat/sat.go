// Package sat implements a CDCL (conflict-driven clause learning) SAT solver
// sufficient for combinational equivalence checking of kilo-gate netlists:
// two-watched-literal propagation, first-UIP conflict analysis with clause
// minimisation, VSIDS-style activity ordering, phase saving, and Luby
// restarts. Only the standard library is used.
//
// Variables are 1-based ints; literals are ±var (DIMACS convention) at the
// API boundary and packed internally.
package sat

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Package-wide observability counters: per-Solve work deltas aggregated
// across every solver instance in the process (internal/obs).
var (
	mSolves       = obs.NewCounter("sat", "solves")
	mDecisions    = obs.NewCounter("sat", "decisions")
	mPropagations = obs.NewCounter("sat", "propagations")
	mConflicts    = obs.NewCounter("sat", "conflicts")
)

// Status is the solver verdict.
type Status int

const (
	// Unknown means the solve budget was exhausted.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula was proved unsatisfiable.
	Unsat
)

// String names the solve outcome for diagnostics.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// lit is a packed literal: variable v (0-based internally) with polarity.
// lit = 2v for +v, 2v+1 for ¬v.
type lit uint32

func mkLit(v int, neg bool) lit {
	l := lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}
func (l lit) v() int    { return int(l >> 1) }
func (l lit) neg() bool { return l&1 == 1 }
func (l lit) not() lit  { return l ^ 1 }

const (
	valUnassigned = iota
	valTrue
	valFalse
)

type clause struct {
	lits   []lit
	learnt bool
	act    float64
}

type watcher struct {
	c       *clause
	blocker lit
}

// Slab chunk sizes for problem clauses: AddClause takes literals from
// litChunk-literal arrays and clause structs from clauseChunk-clause
// arrays, so a formula costs a few allocations instead of two per clause.
// A clause longer than litChunk/4 literals gets its own array.
const (
	litChunk    = 4096
	clauseChunk = 512
)

// slab hands out capacity-capped runs of fixed-size chunks. Its chunks
// outlive reset, which rewinds it so the next formula reuses them.
type slab[T any] struct {
	chunks    [][]T // chunks[cur][:used] is handed out; later chunks are spare
	cur, used int
}

// alloc returns n (≤ size) fresh elements from a chunk of size elements.
func (sl *slab[T]) alloc(n, size int) []T {
	if len(sl.chunks) == 0 || sl.used+n > size {
		if len(sl.chunks) > 0 {
			sl.cur++
		}
		if sl.cur == len(sl.chunks) {
			sl.chunks = append(sl.chunks, make([]T, size))
		}
		sl.used = 0
	}
	b := sl.chunks[sl.cur][sl.used : sl.used+n : sl.used+n]
	sl.used += n
	return b
}

func (sl *slab[T]) reset() { sl.cur, sl.used = 0, 0 }

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	nVars   int
	clauses []*clause
	learnts []*clause   // allocated one by one: reduceDB frees them
	watches [][]watcher // indexed by lit

	// Problem-clause storage (newClause).
	litSlab    slab[lit]
	clauseSlab slab[clause]

	// Scratch reused across calls: AddClause's normalised literals,
	// SolveCtx's packed assumptions, analyze's learnt clause and its
	// per-variable marks (all false between calls).
	addBuf    []lit
	assumeBuf []lit
	learntBuf []lit
	seen      []bool

	assign   []uint8 // per var: valUnassigned/valTrue/valFalse
	level    []int   // decision level per var
	reason   []*clause
	phase    []bool // saved phase per var (true = last assigned true)
	trail    []lit
	trailLim []int // trail index at each decision level
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap

	claInc float64

	ok           bool // false once a top-level conflict is found
	conflicts    int64
	decisions    int64
	propagations int64

	// MaxConflicts bounds the search; ≤0 means unlimited. When exceeded,
	// Solve returns Unknown.
	MaxConflicts int64

	// Assumption-trail reuse: consecutive Solve calls that share a prefix of
	// their assumption lists keep the corresponding pseudo-decision levels
	// (and everything propagated under them) assigned between calls, instead
	// of re-propagating thousands of assumptions from scratch.
	lastAssume []lit // assumptions applied by the most recent Solve, in order
	assumeIdx  []int // per pseudo-decision level: index into lastAssume
}

// New returns a solver with no variables or clauses.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	s.order = &varHeap{s: s}
	return s
}

// Reset returns the solver to the state New gives — no variables or
// clauses, zero stats, MaxConflicts 0, empty trail and assumption state —
// while keeping its allocations: per-variable arrays, watch lists, clause
// slabs and scratch are truncated and reused by the next formula. A proof
// pass that solves many small independent formulas resets one solver
// between them instead of allocating a fresh one each time.
func (s *Solver) Reset() {
	s.nVars = 0
	clear(s.clauses)
	clear(s.learnts)
	s.clauses, s.learnts = s.clauses[:0], s.learnts[:0]
	for i := range s.watches {
		clear(s.watches[i])
		s.watches[i] = s.watches[i][:0]
	}
	s.watches = s.watches[:0]
	s.litSlab.reset()
	s.clauseSlab.reset()
	clear(s.reason)
	s.assign, s.level, s.reason = s.assign[:0], s.level[:0], s.reason[:0]
	s.phase, s.activity, s.seen = s.phase[:0], s.activity[:0], s.seen[:0]
	s.trail, s.trailLim, s.qhead = s.trail[:0], s.trailLim[:0], 0
	s.varInc, s.claInc = 1, 1
	s.order.heap, s.order.pos = s.order.heap[:0], s.order.pos[:0]
	s.ok = true
	s.conflicts, s.decisions, s.propagations = 0, 0, 0
	s.MaxConflicts = 0
	s.lastAssume, s.assumeIdx = s.lastAssume[:0], s.assumeIdx[:0]
}

// NewVar allocates a fresh variable and returns its (1-based) index.
func (s *Solver) NewVar() int {
	s.nVars++
	s.assign = append(s.assign, valUnassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	// Watch lists truncated by Reset keep their backing arrays.
	if n := len(s.watches); n+2 <= cap(s.watches) {
		s.watches = s.watches[:n+2]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.order.push(s.nVars - 1)
	return s.nVars
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

// NumClauses returns the number of problem clauses added (excluding learnt).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// Stats returns (decisions, propagations, conflicts) counters. They
// accumulate across every Solve call since construction or the last
// ResetStats or Reset, so incremental users measuring a phase must bracket
// it with ResetStats (or difference two Stats reads).
func (s *Solver) Stats() (int64, int64, int64) {
	return s.decisions, s.propagations, s.conflicts
}

// ResetStats zeroes the decisions/propagations/conflicts counters so a
// reused solver (e.g. a persistent cec.Session miter across BacktrackAll
// cycles) can report per-phase work. Because per-call budgets are expressed
// against the cumulative conflict count (MaxConflicts = Conflicts() +
// budget), any previously derived MaxConflicts is stale after a reset;
// ResetStats therefore clears MaxConflicts, and callers must re-derive it
// before the next bounded Solve.
func (s *Solver) ResetStats() {
	s.decisions, s.propagations, s.conflicts = 0, 0, 0
	s.MaxConflicts = 0
}

// AddClause adds a clause in DIMACS literal convention (±var, 1-based).
// It returns an error for out-of-range variables. Adding an empty clause, or
// a clause falsified at level 0, makes the formula trivially UNSAT.
func (s *Solver) AddClause(external ...int) error {
	if !s.ok {
		return nil // already UNSAT; further clauses are irrelevant
	}
	lits := s.addBuf[:0]
	for _, e := range external {
		if e == 0 {
			return errors.New("sat: zero literal")
		}
		v := e
		if v < 0 {
			v = -v
		}
		if v > s.nVars {
			return fmt.Errorf("sat: literal %d references unallocated variable", e)
		}
		lits = append(lits, mkLit(v-1, e < 0))
	}
	s.addBuf = lits
	// Normalise: sort, dedup, drop tautologies, drop false lits @ level 0.
	slices.Sort(lits)
	out := lits[:0]
	var prev lit = ^lit(0)
	for _, l := range lits {
		if l == prev {
			continue
		}
		if prev != ^lit(0) && l == prev.not() && l.v() == prev.v() {
			return nil // tautology: x ∨ ¬x
		}
		switch s.value(l) {
		case valTrue:
			if s.level[l.v()] == 0 {
				return nil // satisfied at top level
			}
		case valFalse:
			if s.level[l.v()] == 0 {
				prev = l
				continue // falsified at top level: drop literal
			}
		}
		out = append(out, l)
		prev = l
	}
	lits = out
	switch len(lits) {
	case 0:
		s.ok = false
		return nil
	case 1:
		if !s.enqueue(lits[0], nil) {
			s.ok = false
		} else if conf := s.propagate(); conf != nil {
			s.ok = false
		}
		return nil
	}
	c := s.newClause(lits)
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return nil
}

// newClause copies lits into the problem-clause slabs and returns the
// clause. Learnt clauses are not slab-allocated: reduceDB deletes them, and
// a slab chunk would keep every dead learnt beside it alive.
func (s *Solver) newClause(lits []lit) *clause {
	var cl []lit
	if len(lits) > litChunk/4 {
		cl = slices.Clone(lits)
	} else {
		cl = s.litSlab.alloc(len(lits), litChunk)
		copy(cl, lits)
	}
	c := &s.clauseSlab.alloc(1, clauseChunk)[0]
	*c = clause{lits: cl}
	return c
}

func (s *Solver) watch(c *clause) {
	s.watches[c.lits[0].not()] = append(s.watches[c.lits[0].not()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].not()] = append(s.watches[c.lits[1].not()], watcher{c, c.lits[0]})
}

func (s *Solver) value(l lit) uint8 {
	a := s.assign[l.v()]
	if a == valUnassigned {
		return valUnassigned
	}
	if (a == valTrue) != l.neg() {
		return valTrue
	}
	return valFalse
}

func (s *Solver) enqueue(l lit, from *clause) bool {
	switch s.value(l) {
	case valTrue:
		return true
	case valFalse:
		return false
	}
	v := l.v()
	if l.neg() {
		s.assign[v] = valFalse
	} else {
		s.assign[v] = valTrue
	}
	s.phase[v] = !l.neg()
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == valTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Ensure the false literal (¬p) is at position 1.
			np := p.not()
			if c.lits[0] == np {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == valTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != valFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].not()] = append(s.watches[c.lits[1].not()], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.value(first) == valFalse {
				// Conflict: keep the remaining watchers, restore and bail.
				kept = append(kept, ws[i+1:]...)
				s.watches[p] = kept
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(first, c)
		}
		s.watches[p] = kept
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level. The clause is scratch
// owned by the solver, valid until the next call.
func (s *Solver) analyze(conf *clause) ([]lit, int) {
	learnt := append(s.learntBuf[:0], 0) // placeholder for the asserting literal
	seen := s.seen
	counter := 0
	var p lit = ^lit(0)
	idx := len(s.trail) - 1
	c := conf

	for {
		if c.learnt {
			s.bumpClause(c)
		}
		start := 0
		if p != ^lit(0) {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.v()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal on the trail marked seen.
		for !seen[s.trail[idx].v()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		counter--
		seen[p.v()] = false
		if counter == 0 {
			break
		}
		c = s.reason[p.v()]
	}
	learnt[0] = p.not()

	// Clause minimisation (MiniSat "simple" mode): drop a literal when every
	// literal of its reason clause is level-0 or already in the learnt
	// clause. Membership is checked against the ORIGINAL clause; soundness
	// follows by induction over trail order (the earliest removed literal is
	// implied by kept literals alone, then the next, and so on). Every
	// current-level mark was cleared as the UIP walk passed it, so seen now
	// marks exactly the variables of learnt[1:]. Dropped literals are
	// swapped behind the kept ones so their marks can be cleared below.
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].v()
		r := s.reason[v]
		redundant := false
		if r != nil {
			redundant = true
			for _, q := range r.lits {
				if q.v() == v {
					continue
				}
				if s.level[q.v()] != 0 && !seen[q.v()] {
					redundant = false
					break
				}
			}
		}
		if !redundant {
			learnt[j], learnt[i] = learnt[i], learnt[j]
			j++
		}
	}
	for _, l := range learnt[1:] {
		seen[l.v()] = false
	}
	s.learntBuf = learnt
	learnt = learnt[:j]

	// Backtrack level = second-highest level in the clause.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].v()] > s.level[learnt[maxI].v()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].v()]
	}
	return learnt, bt
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	c.act += s.claInc
	if c.act > 1e20 {
		for _, lc := range s.learnts {
			lc.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].v()
		s.assign[v] = valUnassigned
		s.reason[v] = nil
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
	if len(s.assumeIdx) > level {
		s.assumeIdx = s.assumeIdx[:level]
	}
}

func (s *Solver) pickBranch() (lit, bool) {
	for {
		v, ok := s.order.pop()
		if !ok {
			return 0, false
		}
		if s.assign[v] == valUnassigned {
			return mkLit(v, !s.phase[v]), true
		}
	}
}

// reduceDB halves the learnt clause set, keeping the most active clauses.
// Clauses currently acting as a reason are kept.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 100 {
		return
	}
	sort.Slice(s.learnts, func(i, j int) bool { return s.learnts[i].act > s.learnts[j].act })
	keep := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		// A clause is locked (the reason of an assignment) iff it is the
		// reason of its first literal: propagate and the learnt enqueue
		// both imply lits[0], and nothing moves lits[0] while it is true.
		locked := s.reason[c.lits[0].v()] == c
		if i < limit || locked || len(c.lits) == 2 {
			keep = append(keep, c)
		} else {
			s.unwatch(c)
		}
	}
	clear(s.learnts[len(keep):])
	s.learnts = keep
}

func (s *Solver) unwatch(c *clause) {
	for _, wl := range []lit{c.lits[0].not(), c.lits[1].not()} {
		ws := s.watches[wl]
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[wl] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby computes the Luby restart sequence term i (1-based).
func luby(i int64) int64 {
	for k := uint(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// Solve runs the CDCL search under the optional assumptions (DIMACS
// literals asserted at the start of search). With assumptions, Unsat means
// "unsatisfiable under these assumptions".
func (s *Solver) Solve(assumptions ...int) Status {
	st, _ := s.SolveCtx(context.Background(), assumptions...)
	return st
}

// ctxCheckInterval is how many main-loop iterations run between context
// polls. Each iteration is one propagate call plus a decision or conflict
// (microseconds), so cancellation lands well inside the daemon's 100ms
// slot-release bound even on the heaviest searches.
const ctxCheckInterval = 128

// SolveCtx is Solve with cooperative cancellation: the search loop polls
// ctx every ctxCheckInterval iterations and, when ctx is done, undoes every
// search assignment (the solver stays reusable) and returns Unknown along
// with ctx.Err(). The error is nil for every other outcome, including a
// MaxConflicts budget exhaustion, which still reports a bare Unknown. An
// assumption on an unallocated variable returns Unknown with an error, as
// AddClause does for such a literal.
func (s *Solver) SolveCtx(ctx context.Context, assumptions ...int) (Status, error) {
	if fault.Hit(fault.SATBudget) {
		// Injected budget exhaustion: indistinguishable from MaxConflicts
		// running out before the trail moved.
		return Unknown, nil
	}
	if err := ctx.Err(); err != nil {
		// Already-dead context: refuse before touching the trail at all.
		return Unknown, err
	}
	// Pack the assumptions (asserted below as pseudo-decisions), refusing
	// an unallocated variable before the trail or the counters move.
	assume := s.assumeBuf[:0]
	for _, e := range assumptions {
		if e == 0 {
			continue
		}
		v := e
		if v < 0 {
			v = -v
		}
		if v > s.nVars {
			return Unknown, fmt.Errorf("sat: assumption %d references unallocated variable", e)
		}
		assume = append(assume, mkLit(v-1, e < 0))
	}
	s.assumeBuf = assume
	d0, p0, c0 := s.decisions, s.propagations, s.conflicts
	defer func() {
		mSolves.Inc()
		mDecisions.Add(s.decisions - d0)
		mPropagations.Add(s.propagations - p0)
		mConflicts.Add(s.conflicts - c0)
	}()
	if !s.ok {
		return Unsat, nil
	}

	// Assumption-trail reuse: keep every pseudo-decision level whose
	// assumption also appears, at the same index, in this call's assumption
	// list. Those levels (and their propagations) are still valid decisions
	// for this solve, so only the divergent suffix is re-applied. Levels are
	// sound to keep because every trail literal at level ℓ is implied by the
	// formula plus the decisions at levels ≤ ℓ, all of which are kept.
	prefix := 0
	for prefix < len(assume) && prefix < len(s.lastAssume) && assume[prefix] == s.lastAssume[prefix] {
		prefix++
	}
	keep := 0
	for keep < len(s.assumeIdx) && s.assumeIdx[keep] < prefix {
		keep++
	}
	s.backtrack(keep)
	s.lastAssume = append(s.lastAssume[:0], assume...)
	// assumed counts assumptions consumed; assumeLevels counts the
	// pseudo-decision levels actually created for them. They differ when an
	// assumption is already satisfied by propagation below its level —
	// conflating the two would make the solver mistake a real decision level
	// for an assumption level and declare Unsat without conflict analysis.
	assumed := 0
	assumeLevels := s.decisionLevel() // == keep
	if keep > 0 {
		assumed = s.assumeIdx[keep-1] + 1
	}
	if conf := s.propagate(); conf != nil {
		if s.decisionLevel() == 0 {
			s.ok = false
			return Unsat, nil
		}
		// Clauses were added against a reused trail; discard it and retry
		// from scratch.
		s.backtrack(0)
		assumed, assumeLevels = 0, 0
		if conf := s.propagate(); conf != nil {
			s.ok = false
			return Unsat, nil
		}
	}

	var restart int64 = 1
	confBudget := 100 * luby(restart)
	confsAtRestart := int64(0)
	maxLearnts := len(s.clauses)/3 + 500
	done := ctx.Done()

	for iter := 0; ; iter++ {
		// Poll on entry (iter 0) and then every ctxCheckInterval iterations:
		// entry polling makes even solves that finish in a handful of
		// iterations observe an armed sat.slow stall, so stacked tiny solves
		// under a deadline stay cancellable between solves too.
		if iter%ctxCheckInterval == 0 {
			// Cooperative cancellation point (plus the sat.slow chaos stall,
			// which turns any search into a slow but cancellable one).
			fault.Stall(fault.SATSlow)
			if done != nil {
				select {
				case <-done:
					s.backtrack(0)
					return Unknown, ctx.Err()
				default:
				}
			}
		}
		conf := s.propagate()
		if conf != nil {
			s.conflicts++
			confsAtRestart++
			if s.decisionLevel() <= assumeLevels {
				// Conflict within/below the assumption levels: unsatisfiable
				// under these assumptions. Step just below the conflicting
				// level — the falsified clause has a literal assigned at the
				// conflict level, so the remaining trail is consistent and
				// fully propagated, ready for prefix reuse by the next call.
				if s.decisionLevel() == 0 {
					s.ok = false
					return Unsat, nil
				}
				s.backtrack(s.decisionLevel() - 1)
				return Unsat, nil
			}
			learnt, bt := s.analyze(conf)
			if bt < assumeLevels {
				// Never undo assumption pseudo-levels; a unit learnt
				// clause is then asserted at the assumption level (sound:
				// it is implied by the formula plus the assumptions in
				// effect below it).
				bt = assumeLevels
			}
			s.backtrack(bt)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], nil) {
					s.ok = bt > 0 // under assumptions the formula itself may still be SAT
					return Unsat, nil
				}
			} else {
				c := &clause{lits: slices.Clone(learnt), learnt: true, act: s.claInc}
				s.learnts = append(s.learnts, c)
				s.watch(c)
				if !s.enqueue(learnt[0], c) {
					return Unsat, nil
				}
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if s.MaxConflicts > 0 && s.conflicts >= s.MaxConflicts {
				s.backtrack(0)
				return Unknown, nil
			}
			continue
		}

		if confsAtRestart >= confBudget && s.decisionLevel() > assumeLevels {
			// Restart (never below the assumption levels).
			restart++
			confBudget = 100 * luby(restart)
			confsAtRestart = 0
			s.backtrack(assumeLevels)
			continue
		}
		if len(s.learnts) > maxLearnts {
			s.reduceDB()
			maxLearnts += maxLearnts / 10
		}

		// Apply pending assumptions one pseudo-level at a time.
		if assumed < len(assume) {
			a := assume[assumed]
			switch s.value(a) {
			case valTrue:
				assumed++
				continue
			case valFalse:
				// Refuted by propagation from earlier levels; the trail is
				// consistent and stays in place for prefix reuse.
				return Unsat, nil
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.assumeIdx = append(s.assumeIdx, assumed)
			s.enqueue(a, nil)
			assumed++
			assumeLevels = s.decisionLevel()
			continue
		}

		l, ok := s.pickBranch()
		if !ok {
			return Sat, nil // all variables assigned
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, nil)
	}
}

// BacktrackAll undoes every search assignment, returning the solver to
// decision level 0. After Solve returns Sat the trail still carries the
// model (so Value works); incremental users must call BacktrackAll before
// adding further clauses, because AddClause assumes a level-0 trail (a unit
// clause enqueued at a stale search level would be silently undone by the
// next Solve). Model values are invalid afterwards.
func (s *Solver) BacktrackAll() { s.backtrack(0) }

// Conflicts returns the cumulative conflict count across all Solve calls.
// MaxConflicts compares against this cumulative counter, so per-call budgets
// are expressed as s.MaxConflicts = s.Conflicts() + budget.
func (s *Solver) Conflicts() int64 { return s.conflicts }

// Value returns the assignment of (1-based) variable v after a Sat result:
// true/false. It must only be called after Solve returned Sat.
func (s *Solver) Value(v int) bool {
	return s.assign[v-1] == valTrue
}

// Model returns the full satisfying assignment indexed by variable-1.
func (s *Solver) Model() []bool {
	m := make([]bool, s.nVars)
	for v := 0; v < s.nVars; v++ {
		m[v] = s.assign[v] == valTrue
	}
	return m
}

// varHeap is a max-heap over variable activity with lazy deletion.
type varHeap struct {
	s    *Solver
	heap []int
	pos  []int // position+1 of var in heap; 0 = absent
}

func (h *varHeap) less(i, j int) bool {
	return h.s.activity[h.heap[i]] > h.s.activity[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i + 1
	h.pos[h.heap[j]] = j + 1
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *varHeap) push(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, 0)
	}
	if h.pos[v] != 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v int) { h.push(v) }

func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[v] = 0
	if last > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	if len(h.pos) > v && h.pos[v] != 0 {
		h.up(h.pos[v] - 1)
	}
}
