package registry

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestSingleCopyPiracyTracedExactly: among buyers holding random
// fingerprints recorded with Adopt, a verbatim clone of one buyer's copy
// traces exactly to that buyer, and the marking-assumption accusation
// names that buyer alone.
func TestSingleCopyPiracyTracedExactly(t *testing.T) {
	a := analyzed(t, "c432")
	r := New(a)
	rng := rand.New(rand.NewSource(99))
	asgs := make([]core.Assignment, 6)
	for i := range asgs {
		bits := make([]bool, a.BitCapacity())
		for j := range bits {
			bits[j] = rng.Intn(2) == 1
		}
		asg, err := a.AssignmentFromBits(bits)
		if err != nil {
			t.Fatal(err)
		}
		v, err := a.IntFromAssignment(asg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Adopt("buyer"+string(rune('A'+i)), v.String()); err != nil {
			t.Fatal(err)
		}
		asgs[i] = asg
	}
	// A pirate clones buyer C's instance verbatim.
	cp, err := core.Embed(a, asgs[2])
	if err != nil {
		t.Fatal(err)
	}
	pirated := cp.Clone()
	name, err := r.TraceExact(a, pirated)
	if err != nil {
		t.Fatal(err)
	}
	if name != "buyerC" {
		t.Fatalf("TraceExact = %q, want buyerC", name)
	}
	scores, err := r.TraceScores(a, pirated)
	if err != nil {
		t.Fatal(err)
	}
	if got := Implicated(scores, 1.0); !reflect.DeepEqual(got, []string{"buyerC"}) {
		t.Errorf("Implicated = %v, want [buyerC]", got)
	}
}

// TestImplicated pins the accusation rule: buyers at or above the
// threshold on the marking-assumption score, in score order, and nobody
// when no modification survived.
func TestImplicated(t *testing.T) {
	scores := []Score{
		{Name: "b", AgreePresent: 4, TotalPresent: 4},
		{Name: "a", AgreePresent: 4, TotalPresent: 4},
		{Name: "c", AgreePresent: 3, TotalPresent: 4},
		{Name: "d", AgreePresent: 1, TotalPresent: 4},
	}
	for _, tc := range []struct {
		threshold float64
		want      []string
	}{
		{1.0, []string{"b", "a"}},
		{0.75, []string{"b", "a", "c"}},
		{0, []string{"b", "a", "c", "d"}},
	} {
		if got := Implicated(scores, tc.threshold); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Implicated(%v) = %v, want %v", tc.threshold, got, tc.want)
		}
	}
	stripped := []Score{{Name: "a", AgreeAll: 3, TotalAll: 3}, {Name: "b", AgreeAll: 2, TotalAll: 3}}
	if !FullRemoval(stripped) {
		t.Fatal("no surviving modification not reported as full removal")
	}
	if got := Implicated(stripped, 0); got != nil {
		t.Errorf("full removal implicated %v, want nobody", got)
	}
	if FullRemoval(nil) || Implicated(nil, 0) != nil {
		t.Error("an empty registry reports a verdict")
	}
}

// sortScores is the comparison sort score traces used before the counting
// sort, kept as the ranking oracle: best Fraction first, then best
// FractionAll, ties by buyer name. Every score of one suspect shares its
// totals, so the agreement counts stand in for the fractions.
func sortScores(scores []Score) {
	slices.SortFunc(scores, func(x, y Score) int {
		if c := cmp.Compare(y.AgreePresent, x.AgreePresent); c != 0 {
			return c
		}
		if c := cmp.Compare(y.AgreeAll, x.AgreeAll); c != 0 {
			return c
		}
		return strings.Compare(x.Name, y.Name)
	})
}

// TestTableRankingMatchesComparisonSort builds a mature-size table — 10 001
// random rows added in random name order — on c880's slot radices and on
// c5315's, and requires the counting-sort ranking to equal the comparison
// sort over naively computed scores, on suspects with tampered slots, a
// full removal (TotalPresent 0), an all-tampered copy (TotalAll 0), a
// verbatim row and a random copy.
func TestTableRankingMatchesComparisonSort(t *testing.T) {
	for _, design := range []string{"c880", "c5315"} {
		t.Run(design, func(t *testing.T) {
			a := analyzed(t, design)
			radices := a.Radices()
			rng := rand.New(rand.NewSource(7))
			// Few distinct digits per slot, so many rows tie on both
			// counts and the name order decides.
			randomDigits := func() []int {
				ds := make([]int, len(radices))
				for k, rad := range radices {
					ds[k] = rng.Intn(min(3, rad)) - 1
				}
				return ds
			}
			asgOf := func(ds []int) core.Assignment {
				asg := core.EmptyAssignment(a)
				k := 0
				for i := range asg {
					for j := range asg[i] {
						asg[i][j] = ds[k]
						k++
					}
				}
				return asg
			}
			const rows = 10001
			tb := newTable(a)
			digits := map[string][]int{}
			var recs []entry
			for _, i := range rng.Perm(rows) {
				name := fmt.Sprintf("buyer-%05d", i)
				// Rows go in directly: decoding 10 001 big values costs
				// seconds on c5315, and addValue has its own tests.
				ds := randomDigits()
				tb.names = append(tb.names, name)
				for _, d := range ds {
					tb.digits = append(tb.digits, digitByte(d))
				}
				digits[name] = ds
				recs = append(recs, entry{Record: Record{Buyer: name}, row: int32(tb.len() - 1)})
			}
			slices.SortFunc(recs, compareEntries)

			tampered := randomDigits()
			for k := range tampered {
				if rng.Intn(4) == 0 {
					tampered[k] = core.Tampered
				}
			}
			removed := make([]int, len(radices))
			allTampered := make([]int, len(radices))
			for k := range radices {
				removed[k], allTampered[k] = -1, core.Tampered
			}
			suspects := map[string][]int{
				"tampered":     tampered,
				"full removal": removed,
				"all tampered": allTampered,
				"verbatim":     digits["buyer-04242"],
				"random":       randomDigits(),
			}
			for label, sus := range suspects {
				var want []Score
				for name, ds := range digits {
					s := Score{Name: name}
					for k, obs := range sus {
						if obs == core.Tampered {
							continue
						}
						s.TotalAll++
						if obs >= 0 {
							s.TotalPresent++
						}
						if ds[k] == obs {
							s.AgreeAll++
							if obs >= 0 {
								s.AgreePresent++
							}
						}
					}
					want = append(want, s)
				}
				sortScores(want)
				got := tb.scores(asgOf(sus), recs)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s suspect: counting-sort ranking differs from the comparison sort", label)
				}
				switch label {
				case "full removal":
					if want[0].TotalPresent != 0 {
						t.Fatalf("full removal has TotalPresent %d", want[0].TotalPresent)
					}
				case "all tampered":
					if want[0].TotalAll != 0 {
						t.Fatalf("all-tampered copy has TotalAll %d", want[0].TotalAll)
					}
				}
			}
		})
	}
}

// byteScores is the byte-at-a-time scoring loop table.scores ran before it
// compared eight slots per word, kept as its oracle and ranked by the
// comparison sort (sortScores).
func byteScores(tb *table, got core.Assignment) []Score {
	var want []int8
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
	n := len(tb.radices)
	scores := make([]Score, 0, tb.len())
	for r := range tb.names {
		agreePresent, agreeAll := 0, 0
		for k, b := range tb.digits[r*n : r*n+len(want)] {
			d := int8(b)
			eq := 0
			if d == want[k] {
				eq = 1
			}
			agreeAll += eq
			agreePresent += eq &^ int(uint8(d)>>7)
		}
		scores = append(scores, Score{
			Name:         tb.names[r],
			AgreePresent: agreePresent,
			TotalPresent: totalPresent,
			AgreeAll:     agreeAll,
			TotalAll:     totalAll,
		})
	}
	sortScores(scores)
	return scores
}

// TestTableScoresMatchesByteOracle: the word-parallel scoring pass equals
// the byte-at-a-time oracle on seeded random tables of every width up to
// two words plus a tail, and c880's 82 and 83, with 0, 1 and 1 000 rows.
// Row digits include −1, 0 and the int8 edge 126/127, and digits one
// apart, where a borrowing zero-byte test would count false agreements;
// suspect digits add core.Tampered and digits beyond the int8 range.
func TestTableScoresMatchesByteOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	rowDigits := []int{-1, 0, 1, 2, 126, 127}
	susDigits := append([]int{core.Tampered, 128, 254, 255, 1000}, rowDigits...)
	var widths []int
	for n := 1; n <= 17; n++ {
		widths = append(widths, n)
	}
	widths = append(widths, 82, 83)
	for _, n := range widths {
		for _, rows := range []int{0, 1, 1000} {
			tb := &table{radices: make([]int, n)}
			var recs []entry
			for _, i := range rng.Perm(rows) {
				name := fmt.Sprintf("buyer-%04d", i)
				tb.names = append(tb.names, name)
				for range n {
					tb.digits = append(tb.digits, digitByte(rowDigits[rng.Intn(len(rowDigits))]))
				}
				recs = append(recs, entry{Record: Record{Buyer: name}, row: int32(tb.len() - 1)})
			}
			slices.SortFunc(recs, compareEntries)
			for trial := 0; trial < 4; trial++ {
				// A suspect is a row with some slots rewritten, so
				// agreements spread over the whole range, grouped into
				// locations of one to three slots.
				var base []byte
				if rows > 0 {
					r := rng.Intn(rows)
					base = tb.digits[r*n : (r+1)*n]
				}
				var got core.Assignment
				for k := 0; k < n; {
					loc := make([]int, min(1+rng.Intn(3), n-k))
					for j := range loc {
						if base != nil && rng.Intn(3) > 0 {
							loc[j] = int(int8(base[k+j]))
						} else {
							loc[j] = susDigits[rng.Intn(len(susDigits))]
						}
					}
					got = append(got, loc)
					k += len(loc)
				}
				if g, w := tb.scores(got, recs), byteScores(tb, got); !reflect.DeepEqual(g, w) {
					t.Fatalf("width %d, %d rows, suspect %v: word-parallel scores differ from the byte oracle", n, rows, got)
				}
			}
		}
	}
}
