package registry

import (
	"math/rand"
	"reflect"
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
