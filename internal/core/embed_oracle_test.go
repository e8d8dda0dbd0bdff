package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/verilog"
)

// embedOracle is Embed as it was before the one-pass build, kept as its
// oracle: clone the master, apply the modifications one literal at a time
// and sweep.
func embedOracle(a *core.Analysis, asg core.Assignment) (*circuit.Circuit, error) {
	w, err := core.NewWorking(a, asg)
	if err != nil {
		return nil, err
	}
	return w.Snapshot()
}

// sameCopy reports the first difference between got and want: node
// count, names, kinds, fanins, fanout order, PIs, POs, version, any
// Lookup of a node or master name, or the written .bench and Verilog
// bytes.
func sameCopy(master, got, want *circuit.Circuit) error {
	if got.Name != want.Name || len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("%q with %d nodes, want %q with %d", got.Name, len(got.Nodes), want.Name, len(want.Nodes))
	}
	for i := range want.Nodes {
		g, w := &got.Nodes[i], &want.Nodes[i]
		if g.Name != w.Name || g.IsPI != w.IsPI || g.Kind != w.Kind {
			return fmt.Errorf("node %d: %q PI %v kind %v, want %q PI %v kind %v", i, g.Name, g.IsPI, g.Kind, w.Name, w.IsPI, w.Kind)
		}
		if !slices.Equal(g.Fanin, w.Fanin) || !slices.Equal(g.Fanout(), w.Fanout()) {
			return fmt.Errorf("node %q: fanin %v fanout %v, want %v %v", w.Name, g.Fanin, g.Fanout(), w.Fanin, w.Fanout())
		}
		if cap(g.Fanin) != len(g.Fanin) || cap(g.Fanout()) != len(g.Fanout()) {
			return fmt.Errorf("node %q: fanin or fanout not capped at its length", w.Name)
		}
	}
	if !slices.Equal(got.PIs, want.PIs) || !slices.Equal(got.POs, want.POs) {
		return fmt.Errorf("PIs %v POs %v, want %v %v", got.PIs, got.POs, want.PIs, want.POs)
	}
	if got.Version() != want.Version() {
		return fmt.Errorf("version %d, want %d", got.Version(), want.Version())
	}
	for _, c := range []*circuit.Circuit{want, master} {
		for i := range c.Nodes {
			name := c.Nodes[i].Name
			g, gok := got.Lookup(name)
			w, wok := want.Lookup(name)
			if g != w || gok != wok {
				return fmt.Errorf("Lookup(%q) = %d %v, want %d %v", name, g, gok, w, wok)
			}
		}
	}
	for _, write := range []func(*bytes.Buffer, *circuit.Circuit) error{
		func(b *bytes.Buffer, c *circuit.Circuit) error { return benchfmt.Write(b, c) },
		func(b *bytes.Buffer, c *circuit.Circuit) error { return verilog.Write(b, c) },
	} {
		var gb, wb bytes.Buffer
		if err := write(&gb, got); err != nil {
			return err
		}
		if err := write(&wb, want); err != nil {
			return err
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			return fmt.Errorf("written netlists differ:\n%s\nwant:\n%s", gb.Bytes(), wb.Bytes())
		}
	}
	return nil
}

// withHelperNames returns a copy of c with two extra gates named as the
// first two helper inverters of src would be, "fp_<src>_n" (driving a new
// output) and "fp_<src>_n_0" (dead logic), so that copies must name their
// helpers past both.
func withHelperNames(t *testing.T, c *circuit.Circuit, src string) *circuit.Circuit {
	t.Helper()
	out := c.Clone()
	pi := out.PIs[0]
	live, err := out.AddGate("fp_"+src+"_n", logic.Buf, pi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.AddGate("fp_"+src+"_n_0", logic.Inv, pi); err != nil {
		t.Fatal(err)
	}
	if err := out.AddPO("taken_po", live); err != nil {
		t.Fatal(err)
	}
	return out
}

// negatedSource returns the name of some negated literal's source in a.
func negatedSource(a *core.Analysis) (string, bool) {
	for _, loc := range a.Locations {
		for _, tgt := range loc.Targets {
			for _, v := range tgt.Variants {
				for _, l := range v.Lits {
					if l.Neg {
						return a.Circuit.Nodes[l.Node].Name, true
					}
				}
			}
		}
	}
	return "", false
}

// TestEmbedMatchesOracle: on every suite circuit and extra, Embed builds
// exactly the oracle's copy for the all-unmodified and full assignments and
// for seeded random values; so it does on a master that already uses a
// helper's first two names, where the copies name that helper "_n_1".
func TestEmbedMatchesOracle(t *testing.T) {
	specs := append(bench.Suite(), bench.Extras()...)
	copies, helperMasters := 0, 0
	check := func(t *testing.T, a *core.Analysis, rng *rand.Rand) []*circuit.Circuit {
		t.Helper()
		var built []*circuit.Circuit
		asgs := []core.Assignment{core.EmptyAssignment(a), core.FullAssignment(a)}
		if len(a.Locations) > 0 {
			for range 3 {
				asgs = append(asgs, randomAssignment(t, a, rng))
			}
		}
		for k, asg := range asgs {
			got, err := core.Embed(a, asg)
			if err != nil {
				t.Fatalf("assignment %d: %v", k, err)
			}
			want, err := embedOracle(a, asg)
			if err != nil {
				t.Fatalf("assignment %d: oracle: %v", k, err)
			}
			if err := sameCopy(a.Circuit, got, want); err != nil {
				t.Fatalf("assignment %d: %v", k, err)
			}
			copies++
			built = append(built, got)
		}
		return built
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(spec.Name))))
			check(t, a, rng)
			src, ok := negatedSource(a)
			if !ok {
				return
			}
			b, err := core.Analyze(withHelperNames(t, a.Circuit, src), core.DefaultOptions(cell.Default()))
			if err != nil {
				t.Fatal(err)
			}
			for _, cp := range check(t, b, rng) {
				if _, ok := cp.Lookup("fp_" + src + "_n_1"); ok {
					helperMasters++
					break
				}
			}
		})
	}
	t.Logf("%d copies compared, %d masters with taken helper names", copies, helperMasters)
	if helperMasters == 0 {
		t.Error("no master had a helper name taken")
	}
}

// TestEmbedAllocsBounded: embedding and checking a copy allocates about
// twenty slices and slabs plus the name index, whose map grows by one
// table per thousand or so names — not one allocation or more per node or
// helper inverter, as building it a gate at a time did.
func TestEmbedAllocsBounded(t *testing.T) {
	for _, spec := range append(bench.Suite(), bench.Extras()...) {
		a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
		if err != nil {
			t.Fatal(err)
		}
		asg := core.FullAssignment(a)
		if _, err := core.Embed(a, asg); err != nil { // builds the plan
			t.Fatal(err)
		}
		limit := 24 + float64(len(a.Circuit.Nodes))/256
		if n := testing.AllocsPerRun(3, func() { core.Embed(a, asg) }); n > limit {
			t.Errorf("%s: Embed of a %d-node master made %v allocations, want ≤ %v", spec.Name, len(a.Circuit.Nodes), n, limit)
		}
	}
}

// TestConformsRejects: the conformance check passes every issued copy and
// refuses copies that differ from the slot model: another choice, a helper
// inverter reading the wrong signal, an extra gate, and the unswept
// working circuit, whose helpers follow the targets that read them.
func TestConformsRejects(t *testing.T) {
	spec, err := bench.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatal(err)
	}
	asg := core.FullAssignment(a)
	choice, err := a.SlotChoice(asg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.Embed(a, asg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Conforms(cp, choice); err != nil {
		t.Fatalf("issued copy: %v", err)
	}
	helper := circuit.None
	for i := range cp.Nodes {
		if _, ok := a.Circuit.Lookup(cp.Nodes[i].Name); !ok {
			helper = circuit.NodeID(i)
			break
		}
	}
	if helper == circuit.None {
		t.Fatal("the full copy has no helper inverter")
	}
	other := slices.Clone(choice)
	other[0] = -1
	rewired := cp.Clone()
	if err := rewired.ReplaceFanin(helper, 0, rewired.PIs[0]); err != nil {
		t.Fatal(err)
	}
	extra := cp.Clone()
	if _, err := extra.AddGate("extra_gate", logic.Inv, extra.PIs[0]); err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWorking(a, asg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cp     *circuit.Circuit
		choice []int
	}{
		{"another choice", cp, other},
		{"rewired helper", rewired, choice},
		{"extra gate", extra, choice},
		{"unswept working circuit", w.C, choice},
	} {
		if err := a.Conforms(tc.cp, tc.choice); !errors.Is(err, core.ErrNonconforming) {
			t.Errorf("%s: Conforms = %v, want ErrNonconforming", tc.name, err)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}
