package registry

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"repro/internal/core"
)

// Score is one buyer's agreement with a suspect instance, split into the
// evidence classes that matter under the marking assumption.
type Score struct {
	Name string
	// AgreePresent/TotalPresent count only the slots where the suspect
	// carries a surviving modification. A collusion attacker can strip or
	// rewrite modifications only at sites where the coalition's copies
	// differ — a surviving modification is therefore one the whole
	// coalition shares, so every colluder scores 1.0 here while an
	// innocent buyer matches each slot only by chance. A reset slot is
	// deliberately uninformative: the attacker's "remove the wire"
	// masquerades as a legitimate 0-bit.
	AgreePresent, TotalPresent int
	// AgreeAll/TotalAll count every untampered slot (modified or not);
	// this is the exact-match evidence used for unattacked copies.
	AgreeAll, TotalAll int
}

// Fraction is the marking-assumption score AgreePresent/TotalPresent
// (1.0 when no modification survived — an empty suspect implicates nobody
// and everybody; callers should check TotalPresent).
func (s Score) Fraction() float64 {
	if s.TotalPresent == 0 {
		return 1
	}
	return float64(s.AgreePresent) / float64(s.TotalPresent)
}

// FractionAll is AgreeAll/TotalAll, the agreement over every untampered slot.
func (s Score) FractionAll() float64 {
	if s.TotalAll == 0 {
		return 1
	}
	return float64(s.AgreeAll) / float64(s.TotalAll)
}

// FullRemoval reports whether a scored suspect retains no surviving
// modification at any untampered slot. TotalPresent is a property of the
// suspect alone (it counts slots where the suspect carries a catalogued
// modification, independent of any buyer), so inspecting one score decides
// for all. A full removal means the coalition found and reset every slot
// its members disagreed on AND shared no modification — the one outcome
// the paper's tracing argument concedes ("as long as the collusion
// attacker does not remove all the fingerprint information ..."). Callers
// must report it as a distinct verdict rather than as "matches nobody":
// the evidence channel is empty, not merely inconclusive.
func FullRemoval(scores []Score) bool {
	return len(scores) > 0 && scores[0].TotalPresent == 0
}

// Implicated returns, in score order, the buyers whose marking-assumption
// score reaches threshold (e.g. 1.0 or 0.95). Colluders sit at exactly 1.0
// — the coalition cannot touch the modifications its members share — while
// innocent buyers match each surviving modification only by chance. A full
// removal implicates nobody: with no surviving modification there is no
// evidence to accuse on.
func Implicated(scores []Score, threshold float64) []string {
	var names []string
	for _, s := range scores {
		if s.TotalPresent > 0 && s.Fraction() >= threshold {
			names = append(names, s.Name)
		}
	}
	return names
}

// table is a flat, row-major table of issued fingerprints: one row per
// buyer, one byte per modification slot in the positional order of
// core.Analysis.Radices, holding the slot's digit as an int8's two's
// complement (digitByte: 0xFF for −1 unmodified, d for variant d ≥ 0; the
// flat form of a core.Assignment). It is the registry's resident score
// table. Rows keep no meaningful order (delete moves the last row); each
// registry record names its row, and scores ranks by the records' name
// order. A table is
// not safe for concurrent mutation; the Registry guards it with its lock.
type table struct {
	radices []int    // per slot: 1 + variant count
	scratch []int    // one row's digits while it is added
	names   []string // per row
	digits  []byte   // len(names) rows of len(radices) digits
}

// digitByte is a slot digit in [−1, 127], or core.Tampered, as a table
// byte. Rows hold only 0x00–0x7F and 0xFF, so core.Tampered's 0xFE matches
// no row.
func digitByte(d int) byte { return byte(int8(d)) }

// lowSeven masks the low seven bits of every byte of a word.
const lowSeven = 0x7f7f7f7f7f7f7f7f

// newTable creates an empty table over the analysed design's slots. It
// keeps only the slot radices, not the analysis.
func newTable(a *core.Analysis) *table {
	radices := a.Radices()
	return &table{radices: radices, scratch: make([]int, len(radices))}
}

// len returns the number of rows.
func (t *table) len() int { return len(t.names) }

// name returns the buyer name of a row.
func (t *table) name(row int) string { return t.names[row] }

// addValue appends a row holding the fingerprint value's decoded digits
// (core.DecodeDigits), without building a core.Assignment. It rejects any
// digit the int8 row cannot hold.
func (t *table) addValue(name string, value *big.Int) error {
	if err := core.DecodeDigits(value, t.radices, t.scratch); err != nil {
		return fmt.Errorf("registry: value for %q: %w", name, err)
	}
	for _, d := range t.scratch {
		if d < -1 || d > math.MaxInt8 {
			return fmt.Errorf("registry: digit %d for %q outside the table's range [-1, %d]", d, name, math.MaxInt8)
		}
	}
	t.names = append(t.names, name)
	for _, d := range t.scratch {
		t.digits = append(t.digits, digitByte(d))
	}
	return nil
}

// delete removes a row by moving the last row into its place, so row order
// is not preserved across deletes.
func (t *table) delete(row int) {
	last := len(t.names) - 1
	n := len(t.radices)
	t.names[row] = t.names[last]
	copy(t.digits[row*n:(row+1)*n], t.digits[last*n:])
	t.names[last] = ""
	t.names = t.names[:last]
	t.digits = t.digits[:last*n]
}

// scores scores every row against a suspect's tolerant extraction
// (core.ExtractTolerant) and ranks the buyers best first: higher Fraction,
// then higher FractionAll, then buyer name. recs are the registry's
// records in name order, each naming its row. Tampered slots count for
// nobody. TotalPresent and TotalAll depend on the suspect alone, so they
// are counted once; per row only the agreements are, in one sequential
// pass over the table that compares eight slots per 64-bit word.
//
// Every score of one suspect shares its totals, so the agreement counts
// are exact keys for the two fractions, and each lies in [0, TotalAll].
// The ranking is therefore a stable counting sort of the name-ordered
// records — one pass on AgreeAll, then one on AgreePresent — in
// Θ(rows + slots) with no comparison at all. A single combined key would
// need Θ(slots²) buckets. All scratch is per call, so traces holding the
// registry's read lock run concurrently.
func (t *table) scores(got core.Assignment, recs []entry) []Score {
	// want is the suspect as a row. A tampered slot, or a digit no row can
	// hold (addValue), becomes core.Tampered, which no row holds either,
	// so it matches nobody.
	want := make([]byte, 0, len(t.radices))
	totalPresent, totalAll := 0, 0
	for i := range got {
		for _, obs := range got[i] {
			d := digitByte(core.Tampered)
			if obs != core.Tampered {
				totalAll++
				if obs >= 0 {
					totalPresent++
				}
				if obs <= math.MaxInt8 {
					d = digitByte(obs)
				}
			}
			want = append(want, d)
		}
	}
	n := len(t.radices)
	words := len(want) / 8
	wantWords := make([]uint64, words)
	for w := range wantWords {
		wantWords[w] = binary.LittleEndian.Uint64(want[8*w:])
	}
	tail := want[8*words:]
	type agreement struct{ present, all int32 }
	agree := make([]agreement, len(t.names))
	for r := range agree {
		row := t.digits[r*n : (r+1)*n]
		agreePresent, agreeAll := 0, 0
		// Eight slots per word: a byte of x is zero where the row agrees,
		// and eq holds 0x80 in exactly those bytes (the carry-free
		// zero-byte test, with no false positives). A row byte's sign bit
		// marks an unmodified slot, which agreement does not make present.
		for w, sus := range wantWords {
			d := binary.LittleEndian.Uint64(row[8*w:])
			x := d ^ sus
			eq := ^((x&lowSeven + lowSeven) | x | lowSeven)
			agreeAll += bits.OnesCount64(eq)
			agreePresent += bits.OnesCount64(eq &^ d)
		}
		for k, sus := range tail {
			d := row[8*words+k]
			// Branch-free: whether a row agrees with a suspect is
			// unpredictable, so a branch per slot mispredicts half the time.
			eq := 0
			if d == sus {
				eq = 1
			}
			agreeAll += eq
			agreePresent += eq &^ int(d>>7)
		}
		agree[r] = agreement{int32(agreePresent), int32(agreeAll)}
	}

	// Pass 1: rows in name order, stably bucketed by missed slots
	// (TotalAll − AgreeAll), so the best AgreeAll comes first.
	start := make([]int, totalAll+2)
	for _, e := range recs {
		start[totalAll-int(agree[e.row].all)+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	byAll := make([]int32, len(recs))
	for _, e := range recs {
		k := totalAll - int(agree[e.row].all)
		byAll[start[k]] = int32(e.row)
		start[k]++
	}
	// Pass 2: the same on AgreePresent, emitting the scores.
	start = start[:totalPresent+2]
	clear(start)
	for _, row := range byAll {
		start[totalPresent-int(agree[row].present)+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	scores := make([]Score, len(recs))
	for _, row := range byAll {
		k := totalPresent - int(agree[row].present)
		scores[start[k]] = Score{
			Name:         t.names[row],
			AgreePresent: int(agree[row].present),
			TotalPresent: totalPresent,
			AgreeAll:     int(agree[row].all),
			TotalAll:     totalAll,
		}
		start[k]++
	}
	return scores
}
