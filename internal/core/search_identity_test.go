package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cec"
	"repro/internal/cell"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/search_identity.json")

// searchIdentityCircuits are certified by TestSearchIdentity; the first two
// also run the session and one-shot paths.
var (
	searchIdentityCircuits = []string{"c432", "c499", "c880", "c1355", "c1908", "c3540", "c5315"}
	searchIdentitySession  = map[string]bool{"c432": true, "c880": true}
)

// solverCounters returns every sat.* and cec.* counter of a deterministic
// obs snapshot.
func solverCounters() map[string]int64 {
	out := make(map[string]int64)
	for _, m := range obs.Snapshot(true) {
		if m.Kind == obs.KindCounter && (strings.HasPrefix(m.Name, "sat.") || strings.HasPrefix(m.Name, "cec.")) {
			out[m.Name] = m.Value
		}
	}
	return out
}

// searchWork runs one circuit's proof workload — window certification,
// plus, for the session circuits, 8 verifies of seeded random copies on a
// fresh cec.Session and one cec.Check of the first copy — and returns how
// much each sat.* and cec.* counter moved.
func searchWork(t *testing.T, name string) map[string]int64 {
	t.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(spec.Build(), DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatal(err)
	}
	before := solverCounters()
	ct, err := cec.NewCertifier(a.Circuit, a.Slots(), a.Windows(), cec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Certify(context.Background()); err != nil {
		t.Fatal(err)
	}
	if searchIdentitySession[name] {
		sess, err := cec.NewSession(a.Circuit, a.Slots(), cec.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		var first Assignment
		for i := 0; i < 8; i++ {
			bits := make([]bool, a.BitCapacity())
			for j := range bits {
				bits[j] = rng.Intn(2) == 1
			}
			asg, err := a.AssignmentFromBits(bits)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = asg
			}
			choice, err := a.SlotChoice(asg)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := sess.Verify(choice); err != nil || !v.Equivalent {
				t.Fatalf("session verify %d: %+v, %v", i, v, err)
			}
		}
		inst, err := Embed(a, first)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := cec.Check(a.Circuit, inst, cec.DefaultOptions()); err != nil || !v.Equivalent {
			t.Fatalf("cec.Check: %+v, %v", v, err)
		}
	}
	after := solverCounters()
	for k, v := range after {
		after[k] = v - before[k]
	}
	return after
}

// TestSearchIdentity pins the SAT search itself, not just its verdicts:
// every sat.* counter (solves, decisions, propagations, conflicts) and
// every cec.* counter of the searchWork workload must equal the values in
// testdata/search_identity.json. A change to how the solver stores or
// allocates must leave them bit-identical. Only a deliberate change to the
// search heuristics (decision order, restarts, clause deletion such as an
// LBD policy, minimisation) may move them; such a change regenerates the
// file with `go test ./internal/core -run TestSearchIdentity -update` and
// says so.
func TestSearchIdentity(t *testing.T) {
	got := make(map[string]map[string]int64)
	for _, name := range searchIdentityCircuits {
		got[name] = searchWork(t, name)
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	path := filepath.Join("testdata", "search_identity.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, want) {
		return
	}
	var wantM map[string]map[string]int64
	if err := json.Unmarshal(want, &wantM); err != nil {
		t.Fatal(err)
	}
	for _, name := range searchIdentityCircuits {
		for k, v := range got[name] {
			if w := wantM[name][k]; v != w {
				t.Errorf("%s: %s = %d, want %d", name, k, v, w)
			}
		}
		for k, w := range wantM[name] {
			if _, ok := got[name][k]; !ok {
				t.Errorf("%s: %s missing, want %d", name, k, w)
			}
		}
	}
}
