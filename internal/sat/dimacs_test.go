package sat

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseDIMACSBasic(t *testing.T) {
	src := `
c a tiny instance
p cnf 3 3
1 -2 0
2 3 0
-1 0
`
	s, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() != 3 {
		t.Errorf("vars = %d", s.NumVars())
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	// ¬1, so clause 1 forces ¬2, so clause 2 forces 3.
	if s.Value(1) || s.Value(2) || !s.Value(3) {
		t.Errorf("model = %v %v %v", s.Value(1), s.Value(2), s.Value(3))
	}
}

func TestParseDIMACSMultilineAndImplicitVars(t *testing.T) {
	// Clause split across lines; variables beyond the header allocate
	// implicitly when no header is given.
	src := "1 2\n-3 0\n"
	s, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() != 3 || s.NumClauses()+trailUnits(s) == 0 {
		t.Errorf("vars=%d", s.NumVars())
	}
	if s.Solve() != Sat {
		t.Error("should be SAT")
	}
}

func trailUnits(s *Solver) int {
	n := 0
	for _, l := range s.trail {
		if s.level[l.v()] == 0 && s.reason[l.v()] == nil {
			n++
		}
	}
	return n
}

// TestParseDIMACSSATLIBTrailer: the "%" line and the lone "0" after it,
// which SATLIB's uf/uuf files end with, are not an empty clause.
func TestParseDIMACSSATLIBTrailer(t *testing.T) {
	for _, src := range []string{
		"p cnf 2 1\n1 2 0\n%\n0\n",
		"c uf-style\np cnf 2 2\n 1 -2 0\n 2 0\n%\n0\n\n",
	} {
		s, err := ParseDIMACS(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Solve(); got != Sat {
			t.Errorf("%q: Solve = %v, want SAT", src, got)
		}
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":  "p cnf x 3\n1 0\n",
		"bad literal": "p cnf 2 1\n1 q 0\n",
		"neg vars":    "p cnf -2 1\n1 0\n",
	}
	for name, src := range cases {
		if _, err := ParseDIMACS(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDIMACSRoundTripVerdicts: writing and re-parsing a random formula
// preserves satisfiability and, when SAT, the recovered model satisfies the
// original clauses.
func TestDIMACSRoundTripVerdicts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 3 + rng.Intn(7)
		var cnf [][]int
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for i := 0; i < 3+rng.Intn(20); i++ {
			w := 1 + rng.Intn(3)
			cl := make([]int, 0, w)
			for j := 0; j < w; j++ {
				l := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 1 {
					l = -l
				}
				cl = append(cl, l)
			}
			cnf = append(cnf, cl)
			if err := s.AddClause(cl...); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := s.WriteDIMACS(&buf); err != nil {
			t.Logf("seed %d: write: %v", seed, err)
			return false
		}
		s2, err := ParseDIMACS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Logf("seed %d: parse: %v\n%s", seed, err, buf.String())
			return false
		}
		got1 := s.Solve()
		got2 := s2.Solve()
		if got1 != got2 {
			t.Logf("seed %d: verdicts differ: %v vs %v", seed, got1, got2)
			return false
		}
		if got2 == Sat {
			// The reloaded model must satisfy the ORIGINAL clause list.
			for _, cl := range cnf {
				ok := false
				for _, l := range cl {
					v := l
					if v < 0 {
						v = -v
					}
					if (l > 0) == s2.Value(v) {
						ok = true
						break
					}
				}
				if !ok {
					t.Logf("seed %d: reloaded model violates %v", seed, cl)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteDIMACSUnsatFormula(t *testing.T) {
	s := New()
	v := s.NewVar()
	if err := s.AddClause(v); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClause(-v); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ParseDIMACS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Solve(); got != Unsat {
		t.Fatalf("reloaded UNSAT formula solved as %v:\n%s", got, buf.String())
	}
}
