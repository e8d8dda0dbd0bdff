package attack

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"

	"repro/internal/core"
)

// Table is a flat, row-major table of issued fingerprints: one row per
// buyer, one narrow digit per modification slot in the positional order of
// core.Analysis.Radices (−1 unmodified, d ≥ 0 variant d: the flat form of a
// core.Assignment). It is the one scoring loop behind Tracer and behind the
// registry's resident score table. A Table is not safe for concurrent
// mutation; callers that share one guard it.
type Table struct {
	radices []int    // per slot: 1 + variant count
	scratch []int    // one row's digits while it is added
	names   []string // per row
	digits  []int8   // len(names) rows of len(radices) digits
}

// NewTable creates an empty table over the analysed design's slots. It
// keeps only the slot radices, not the analysis.
func NewTable(a *core.Analysis) *Table {
	radices := a.Radices()
	return &Table{radices: radices, scratch: make([]int, len(radices))}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.names) }

// Name returns the buyer name of a row.
func (t *Table) Name(row int) string { return t.names[row] }

// Add appends a row holding asg, which must have one digit per slot.
func (t *Table) Add(name string, asg core.Assignment) error {
	k := 0
	for i := range asg {
		for _, d := range asg[i] {
			if k == len(t.scratch) {
				return fmt.Errorf("attack: assignment for %q has more than the design's %d slots", name, len(t.radices))
			}
			t.scratch[k] = d
			k++
		}
	}
	if k != len(t.scratch) {
		return fmt.Errorf("attack: assignment for %q has %d slots, the design %d", name, k, len(t.radices))
	}
	return t.appendRow(name)
}

// AddValue appends a row holding the fingerprint value's decoded digits
// (core.DecodeDigits), without building a core.Assignment.
func (t *Table) AddValue(name string, value *big.Int) error {
	if err := core.DecodeDigits(value, t.radices, t.scratch); err != nil {
		return fmt.Errorf("attack: value for %q: %w", name, err)
	}
	return t.appendRow(name)
}

// appendRow narrows the scratch digits into a new row, rejecting any digit
// the int8 row cannot hold.
func (t *Table) appendRow(name string) error {
	for _, d := range t.scratch {
		if d < -1 || d > math.MaxInt8 {
			return fmt.Errorf("attack: digit %d for %q outside the table's range [-1, %d]", d, name, math.MaxInt8)
		}
	}
	t.names = append(t.names, name)
	for _, d := range t.scratch {
		t.digits = append(t.digits, int8(d))
	}
	return nil
}

// Delete removes a row by moving the last row into its place, so row order
// is not preserved across deletes.
func (t *Table) Delete(row int) {
	last := len(t.names) - 1
	n := len(t.radices)
	t.names[row] = t.names[last]
	copy(t.digits[row*n:(row+1)*n], t.digits[last*n:])
	t.names[last] = ""
	t.names = t.names[:last]
	t.digits = t.digits[:last*n]
}

// Scores scores every row against a suspect's tolerant extraction
// (core.ExtractTolerant), one Score per row in row order. Tampered slots
// count for nobody. TotalPresent and TotalAll depend on the suspect alone,
// so they are counted once; per row only the agreements are, in one
// sequential pass over the row.
func (t *Table) Scores(got core.Assignment) []Score {
	// want is the suspect as a row. A tampered slot, or a digit no row can
	// hold (appendRow), becomes core.Tampered, which no row holds either,
	// so it matches nobody.
	want := make([]int8, 0, len(t.radices))
	totalPresent, totalAll := 0, 0
	for i := range got {
		for _, obs := range got[i] {
			d := int8(core.Tampered)
			if obs != core.Tampered {
				totalAll++
				if obs >= 0 {
					totalPresent++
				}
				if obs <= math.MaxInt8 {
					d = int8(obs)
				}
			}
			want = append(want, d)
		}
	}
	n := len(t.radices)
	scores := make([]Score, len(t.names))
	for r := range scores {
		row := t.digits[r*n : (r+1)*n]
		agreePresent, agreeAll := 0, 0
		for k, d := range row[:len(want)] {
			// Branch-free: whether a row agrees with a suspect is
			// unpredictable, so a branch per slot mispredicts half the time.
			eq := 0
			if d == want[k] {
				eq = 1
			}
			agreeAll += eq
			agreePresent += eq &^ int(uint8(d)>>7) // d ≥ 0: sign bit clear
		}
		scores[r] = Score{
			Name:         t.names[r],
			AgreePresent: agreePresent,
			TotalPresent: totalPresent,
			AgreeAll:     agreeAll,
			TotalAll:     totalAll,
		}
	}
	return scores
}

// byEvidence orders two scores of one suspect best first: higher Fraction,
// then higher FractionAll. Every score of one suspect shares TotalPresent
// and TotalAll, so the agreement counts are exact sort keys for the two
// fractions and no comparison divides.
func byEvidence(x, y Score) int {
	if c := cmp.Compare(y.AgreePresent, x.AgreePresent); c != 0 {
		return c
	}
	return cmp.Compare(y.AgreeAll, x.AgreeAll)
}

// SortScores orders one suspect's scores best first (as Tracer.TraceScores
// does) and breaks ties by buyer name, for tables whose row order carries
// no meaning: Delete moves rows.
func SortScores(scores []Score) {
	slices.SortFunc(scores, func(x, y Score) int {
		if c := byEvidence(x, y); c != 0 {
			return c
		}
		return strings.Compare(x.Name, y.Name)
	})
}
