package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDIMACS reads a CNF formula in DIMACS format into a fresh solver.
// The header ("p cnf <vars> <clauses>") is honoured for variable
// allocation; comment lines ("c …") are skipped, and a "%" line (the
// SATLIB trailer, followed by a lone "0") ends the formula. Clauses may
// span lines and are terminated by 0.
func ParseDIMACS(r io.Reader) (*Solver, error) {
	sc := bufio.NewScanner(r)
	// Lines may reach 1 MiB; the buffer starts at bufio's 4 KiB and grows
	// only for long lines, so a small input does not zero 1 MiB.
	sc.Buffer(nil, 1<<20)
	s := New()
	declaredVars := -1
	var clause []int
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "%" {
			break
		}
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("dimacs line %d: malformed header %q", lineNo, line)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 {
				return nil, fmt.Errorf("dimacs line %d: bad variable count", lineNo)
			}
			declaredVars = nv
			for s.NumVars() < nv {
				s.NewVar()
			}
			continue
		}
		for _, tok := range strings.Fields(line) {
			lit, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("dimacs line %d: bad literal %q", lineNo, tok)
			}
			if lit == 0 {
				if len(clause) > 0 || declaredVars >= 0 {
					if err := s.AddClause(clause...); err != nil {
						return nil, fmt.Errorf("dimacs line %d: %w", lineNo, err)
					}
				}
				clause = clause[:0]
				continue
			}
			v := lit
			if v < 0 {
				v = -v
			}
			for s.NumVars() < v {
				s.NewVar()
			}
			clause = append(clause, lit)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(clause) > 0 {
		if err := s.AddClause(clause...); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// WriteDIMACS serialises a clause set in DIMACS format. It is the inverse
// of ParseDIMACS for the problem clauses (learnt clauses are not written);
// clauses simplified away during AddClause (tautologies, satisfied-at-level-0)
// do not reappear.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// Count unit facts assigned at level 0 — they are part of the formula.
	var units []lit
	for i := 0; i < len(s.trail); i++ {
		l := s.trail[i]
		if s.level[l.v()] == 0 && s.reason[l.v()] == nil {
			units = append(units, l)
		}
	}
	nClauses := len(s.clauses) + len(units)
	if !s.ok {
		nClauses++ // the empty clause
	}
	fmt.Fprintf(bw, "p cnf %d %d\n", s.nVars, nClauses)
	for _, l := range units {
		fmt.Fprintf(bw, "%d 0\n", external(l))
	}
	for _, c := range s.clauses {
		for _, l := range c.lits {
			fmt.Fprintf(bw, "%d ", external(l))
		}
		fmt.Fprintln(bw, "0")
	}
	if !s.ok {
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}

func external(l lit) int {
	e := l.v() + 1
	if l.neg() {
		return -e
	}
	return e
}
