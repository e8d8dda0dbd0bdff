package sat

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// outcome is everything a solve exposes: verdict, error, stats, learnt
// database and, after Sat, the model.
type outcome struct {
	st    Status
	err   error
	trace string
	model []bool
}

func solveOutcome(s *Solver, assumptions ...int) outcome {
	st, err := s.SolveCtx(context.Background(), assumptions...)
	o := outcome{st: st, err: err, trace: searchTrace(s)}
	if st == Sat {
		o.model = s.Model()
	}
	return o
}

func (o outcome) equal(p outcome) bool {
	return o.st == p.st && o.err == p.err && o.trace == p.trace && slices.Equal(o.model, p.model)
}

// freshState prints the solver state that New fixes: counters, scalars,
// budget and the length of every per-variable, per-clause and search list.
func freshState(s *Solver) string {
	return fmt.Sprint(s.nVars, len(s.clauses), len(s.learnts), len(s.watches),
		len(s.assign), len(s.level), len(s.reason), len(s.phase), len(s.activity), len(s.seen),
		len(s.trail), len(s.trailLim), s.qhead, s.varInc, s.claInc, len(s.order.heap), len(s.order.pos),
		s.ok, s.conflicts, s.decisions, s.propagations, s.MaxConflicts, len(s.lastAssume), len(s.assumeIdx))
}

// resetPreludes leave a solver in each state a proof pass can hand to
// Reset: just after solves under assumptions, after a MaxConflicts stop,
// and after a cancelled context stopped the search.
var resetPreludes = []struct {
	name string
	run  func(t *testing.T, s *Solver)
}{
	{"assumptions", func(t *testing.T, s *Solver) {
		load(t, s, 60, random3SAT(rand.New(rand.NewSource(5)), 60, 250))
		s.Solve(1, -2, 3)
		s.Solve(1, -2, -4)
	}},
	{"max-conflicts", func(t *testing.T, s *Solver) {
		encodePigeonhole(t, s, 8, 7)
		s.MaxConflicts = 40
		if st := s.Solve(); st != Unknown {
			t.Fatalf("budgeted PHP(8,7) = %v, want UNKNOWN", st)
		}
	}},
	{"cancelled", func(t *testing.T, s *Solver) {
		encodePigeonhole(t, s, 10, 9)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer cancel()
		if st, err := s.SolveCtx(ctx); st != Unknown || err == nil {
			t.Fatalf("PHP(10,9) under a 2ms deadline = %v, %v; want UNKNOWN and the context error", st, err)
		}
	}},
}

// TestResetMatchesNew: a solver reused through Reset is indistinguishable
// from a new one. Random 3-SAT formulas near the threshold, solved under
// assumptions and then without, give the same verdicts, stats, learnt
// clauses and models on a fresh solver and on one reset after each
// prelude.
func TestResetMatchesNew(t *testing.T) {
	reused := New()
	for _, pre := range resetPreludes {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nVars := 20 + rng.Intn(60)
			cnf := random3SAT(rng, nVars, nVars*4+rng.Intn(nVars/2))
			var assume []int
			for i := rng.Intn(4); i > 0; i-- {
				assume = append(assume, (1+rng.Intn(nVars))*(1-2*rng.Intn(2)))
			}
			reused.Reset()
			pre.run(t, reused)
			reused.Reset()
			if got, want := freshState(reused), freshState(New()); got != want {
				t.Fatalf("%s: state after Reset %s, after New %s", pre.name, got, want)
			}
			fresh := New()
			load(t, fresh, nVars, cnf)
			load(t, reused, nVars, cnf)
			for _, as := range [][]int{assume, nil} {
				want, got := solveOutcome(fresh, as...), solveOutcome(reused, as...)
				if !got.equal(want) {
					t.Fatalf("%s seed %d assume %v:\n reset %v %v %s\n   new %v %v %s",
						pre.name, seed, as, got.st, got.err, got.trace, want.st, want.err, want.trace)
				}
			}
		}
	}
}

// TestResetReusesAllocations: once a solver has held a formula, Reset and
// re-encoding a formula no larger allocate nothing — variables, watch
// lists and the clause slabs all come from the kept capacity.
func TestResetReusesAllocations(t *testing.T) {
	cnf := random3SAT(rand.New(rand.NewSource(3)), 1000, 4000)
	s := New()
	load(t, s, 1000, cnf)
	if n := testing.AllocsPerRun(5, func() {
		s.Reset()
		load(t, s, 1000, cnf)
	}); n != 0 {
		t.Fatalf("Reset and re-encode allocated %v times, want 0", n)
	}
}

// decodeCNF turns fuzz bytes into a formula over at most 10 variables:
// byte 0 picks the variable count, byte 1 the number of assumptions (≤3),
// then one byte per assumption literal, then clauses, each a width byte
// (0xff is the empty clause, otherwise 1–3 literals) and its literal bytes.
// A literal byte b is variable 1+(b>>1)%nVars, negated when b is odd.
func decodeCNF(data []byte) (nVars int, assume []int, cnf [][]int) {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	b, _ := next()
	nVars = 1 + int(b)%10
	toLit := func(b byte) int {
		l := 1 + int(b>>1)%nVars
		if b&1 == 1 {
			return -l
		}
		return l
	}
	b, _ = next()
	for n := int(b) % 4; n > 0; n-- {
		if b, ok := next(); ok {
			assume = append(assume, toLit(b))
		}
	}
	for {
		w, ok := next()
		if !ok {
			return nVars, assume, cnf
		}
		cl := []int{}
		if w != 0xff {
			for n := 1 + int(w)%3; n > 0; n-- {
				if b, ok := next(); ok {
					cl = append(cl, toLit(b))
				}
			}
		}
		cnf = append(cnf, cl)
	}
}

// FuzzSolve checks the solver on fuzzed small formulas: the verdict under
// the assumptions matches brute force, a Sat model satisfies every clause
// and assumption, and a solver reset after solving a different formula
// (the clauses reversed, the assumptions negated) answers exactly like a
// new one. Run with `go test -run '^FuzzSolve$' -fuzz='^FuzzSolve$'
// ./internal/sat/`.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{2, 1, 1, 1, 0, 2, 0, 1, 3})
	f.Add([]byte{9, 2, 4, 7, 2, 1, 3, 5, 2, 2, 9, 11, 2, 6, 8, 10, 0xff})
	f.Add([]byte{5, 0, 0, 0, 0, 1, 0, 2, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		nVars, assume, cnf := decodeCNF(data)
		fresh := New()
		load(t, fresh, nVars, cnf)
		want := solveOutcome(fresh, assume...)
		units := slices.Clone(cnf)
		for _, a := range assume {
			units = append(units, []int{a})
		}
		switch sat := bruteForce(nVars, units); {
		case want.err != nil || want.st == Unknown:
			t.Fatalf("unbudgeted solve = %v, %v", want.st, want.err)
		case sat != (want.st == Sat):
			t.Fatalf("solver %v, brute force satisfiable %v", want.st, sat)
		}
		if want.st == Sat {
			for _, cl := range units {
				if !slices.ContainsFunc(cl, func(l int) bool { return (l > 0) == want.model[abs(l)-1] }) {
					t.Fatalf("model %v violates clause %v", want.model, cl)
				}
			}
		}

		reused := New()
		other := slices.Clone(cnf)
		slices.Reverse(other)
		load(t, reused, nVars, other)
		negated := make([]int, len(assume))
		for i, a := range assume {
			negated[i] = -a
		}
		reused.Solve(negated...)
		reused.Reset()
		load(t, reused, nVars, cnf)
		if got := solveOutcome(reused, assume...); !got.equal(want) {
			t.Fatalf("reset solver %v %s, new solver %v %s", got.st, got.trace, want.st, want.trace)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
