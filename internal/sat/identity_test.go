package sat

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// random3SAT returns nClauses random 3-literal clauses over nVars.
func random3SAT(rng *rand.Rand, nVars, nClauses int) [][]int {
	cnf := make([][]int, nClauses)
	for i := range cnf {
		cl := make([]int, 3)
		for j := range cl {
			cl[j] = 1 + rng.Intn(nVars)
			if rng.Intn(2) == 1 {
				cl[j] = -cl[j]
			}
		}
		cnf[i] = cl
	}
	return cnf
}

// load allocates nVars variables on s and adds cnf.
func load(t testing.TB, s *Solver, nVars int, cnf [][]int) {
	t.Helper()
	for s.NumVars() < nVars {
		s.NewVar()
	}
	for _, cl := range cnf {
		if err := s.AddClause(cl...); err != nil {
			t.Fatal(err)
		}
	}
}

// searchTrace summarises a solver's search so far: its stats, its learnt
// clause count and an FNV-1a hash over the learnt clauses' literals in
// database order.
func searchTrace(s *Solver) string {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range s.learnts {
		for _, l := range c.lits {
			b[0], b[1], b[2], b[3] = byte(l), byte(l>>8), byte(l>>16), byte(l>>24)
			h.Write(b[:])
		}
		h.Write([]byte{0xff, 0xff, 0xff, 0xff})
	}
	d, p, c := s.Stats()
	return fmt.Sprintf("d=%d p=%d c=%d learnts=%d h=%016x", d, p, c, len(s.learnts), h.Sum64())
}

// TestSearchIdentity pins the CDCL search on instances hard enough to
// restart, rescale activities and run reduceDB many times: the verdicts,
// the decision/propagation/conflict counts and the learnt clause database
// (count and literal hash, in order) must equal the recorded values. A
// change to how the solver stores or allocates must leave every line
// unchanged; only a deliberate heuristic change (decision order, restarts,
// clause deletion such as an LBD policy, minimisation) may update them,
// and says so.
func TestSearchIdentity(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) string
		want string
	}{
		{"php-8-7", func(t *testing.T) string {
			s := pigeonhole(t, 8, 7)
			return s.Solve().String() + " " + searchTrace(s)
		}, "UNSAT d=3683 p=36754 c=3016 learnts=840 h=b579e8efcc9d926a"},
		{"3sat-150-threshold", func(t *testing.T) string {
			out := ""
			for seed := int64(1); seed <= 3; seed++ {
				s := New()
				load(t, s, 150, random3SAT(rand.New(rand.NewSource(seed)), 150, 660))
				out += s.Solve().String() + " " + searchTrace(s) + "; "
			}
			return out
		}, "UNSAT d=3216 p=83329 c=2680 learnts=1020 h=c5e3aa31ff021a54; " +
			"SAT d=1372 p=34763 c=1118 learnts=759 h=2b81ce5d222f7edc; " +
			"UNSAT d=2854 p=73819 c=2333 learnts=678 h=8b1203ec33d8fda7; "},
		{"3sat-assumption-sequence", func(t *testing.T) string {
			rng := rand.New(rand.NewSource(7))
			s := New()
			load(t, s, 120, random3SAT(rng, 120, 450))
			prefix := []int{3, -9}
			out := ""
			for i := 0; i < 24; i++ {
				as := append([]int(nil), prefix...)
				for j := 0; j < 3; j++ {
					l := 1 + rng.Intn(120)
					if rng.Intn(2) == 1 {
						l = -l
					}
					as = append(as, l)
				}
				out += s.Solve(as...).String() + ","
			}
			return out + " " + searchTrace(s)
		}, "SAT,UNSAT,SAT,SAT,SAT,SAT,SAT,SAT,SAT,SAT,UNSAT,SAT,UNSAT,SAT,SAT,SAT,SAT,UNSAT,SAT,SAT,UNSAT,SAT,SAT,SAT, " +
			"d=1094 p=20374 c=671 learnts=344 h=1bbc570be36de4da"},
		{"3sat-budgeted-resume", func(t *testing.T) string {
			s := New()
			load(t, s, 140, random3SAT(rand.New(rand.NewSource(11)), 140, 600))
			out := ""
			for st := Unknown; st == Unknown && len(out) < 200; {
				s.MaxConflicts = s.Conflicts() + 200
				st = s.Solve()
				out += st.String() + ","
			}
			return out + " " + searchTrace(s)
		}, "UNKNOWN,UNKNOWN,UNKNOWN,UNKNOWN,UNKNOWN,UNKNOWN,UNKNOWN,UNKNOWN,UNSAT, " +
			"d=2085 p=49812 c=1743 learnts=693 h=feb7ba015fe88724"},
	}
	for _, tc := range cases {
		got := tc.run(t)
		if got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
