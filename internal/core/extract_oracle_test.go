package core_test

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/redteam"
	"repro/internal/verilog"
)

// oracleExtractTolerant is the extractor as it read a built circuit before
// extraction moved onto circuit.Netlist: per target, the copy gate by
// name, then per candidate form two maps of expected pin names. It is the
// test oracle for core.ExtractTolerant and core.Extract, which must return
// its assignment and tampered list on every copy.
func oracleExtractTolerant(a *core.Analysis, cp *circuit.Circuit) (core.Assignment, []core.SlotRef) {
	asg := core.EmptyAssignment(a)
	var tampered []core.SlotRef
	for i := range a.Locations {
		loc := &a.Locations[i]
		for j := range loc.Targets {
			v, ok := oracleTarget(a, cp, &loc.Targets[j])
			if !ok {
				asg[i][j] = core.Tampered
				tampered = append(tampered, core.SlotRef{Loc: i, Target: j})
				continue
			}
			asg[i][j] = v
		}
	}
	return asg, tampered
}

func oracleTarget(a *core.Analysis, cp *circuit.Circuit, tgt *core.Target) (int, bool) {
	orig := &a.Circuit.Nodes[tgt.Gate]
	id, ok := cp.Lookup(orig.Name)
	if !ok {
		return 0, false
	}
	got := &cp.Nodes[id]
	if got.IsPI {
		return 0, false
	}
	if oracleMatch(a, cp, got, orig.Kind, orig.Fanin, nil) {
		return -1, true
	}
	for v := range tgt.Variants {
		variant := &tgt.Variants[v]
		if oracleMatch(a, cp, got, variant.NewGateKind, orig.Fanin, variant.Lits) {
			return v, true
		}
	}
	return 0, false
}

func oracleMatch(a *core.Analysis, cp *circuit.Circuit, got *circuit.Node, kind logic.Kind, origFanin []circuit.NodeID, lits []core.Lit) bool {
	if got.Kind != kind {
		return false
	}
	if len(got.Fanin) != len(origFanin)+len(lits) {
		return false
	}
	want := make(map[string]int, len(origFanin))
	for _, f := range origFanin {
		want[a.Circuit.Nodes[f].Name]++
	}
	negWant := make(map[string]int, len(lits))
	for _, l := range lits {
		name := a.Circuit.Nodes[l.Node].Name
		if l.Neg {
			negWant[name]++
		} else {
			want[name]++
		}
	}
	for _, f := range got.Fanin {
		fn := &cp.Nodes[f]
		if want[fn.Name] > 0 {
			want[fn.Name]--
			continue
		}
		if fn.Kind == logic.Inv && !fn.IsPI {
			if _, inOriginal := a.Circuit.Lookup(fn.Name); !inOriginal {
				srcName := cp.Nodes[fn.Fanin[0]].Name
				if negWant[srcName] > 0 {
					negWant[srcName]--
					continue
				}
			}
		}
		return false
	}
	for _, n := range want {
		if n != 0 {
			return false
		}
	}
	for _, n := range negWant {
		if n != 0 {
			return false
		}
	}
	return true
}

// renamed is c with every node for which rename returns a new name
// renamed, read and written consistently: the copy a pirate who renames
// signals would hand in.
func renamed(tb testing.TB, c *circuit.Circuit, rename func(string) string) *circuit.Circuit {
	tb.Helper()
	d := &circuit.Defs{}
	for _, id := range c.MustTopoOrder() {
		nd := &c.Nodes[id]
		if nd.IsPI {
			d.Inputs = append(d.Inputs, rename(nd.Name))
			continue
		}
		d.Gates = append(d.Gates, rename(nd.Name))
		d.Kinds = append(d.Kinds, nd.Kind)
		for _, f := range nd.Fanin {
			d.Args = append(d.Args, rename(c.Nodes[f].Name))
		}
		d.Ends = append(d.Ends, int32(len(d.Args)))
	}
	for _, po := range c.POs {
		d.Outputs = append(d.Outputs, po.Name)
		d.Drivers = append(d.Drivers, rename(c.Nodes[po.Driver].Name))
	}
	out, err := circuit.Build(c.Name, d)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// tamper rewires target gates of an issued copy the way no catalogued
// variant does: a few have their kind flipped within its arity class, and
// a helper inverter pin is moved onto an inverter of the original design
// that reads the same signal wherever there is one. One target gate is
// renamed away, so its slot's gate is missing. It returns the copy and the
// number of pins moved.
func tamper(tb testing.TB, a *core.Analysis, cp *circuit.Circuit, rng *rand.Rand) (*circuit.Circuit, int) {
	tb.Helper()
	cp = cp.Clone()
	flip := map[logic.Kind]logic.Kind{
		logic.And: logic.Or, logic.Or: logic.And, logic.Nand: logic.Nor, logic.Nor: logic.Nand,
		logic.Xor: logic.Xnor, logic.Xnor: logic.Xor, logic.Inv: logic.Buf, logic.Buf: logic.Inv,
	}
	inverterOf := map[string]string{} // signal → an original inverter reading it
	for i := range a.Circuit.Nodes {
		if nd := &a.Circuit.Nodes[i]; !nd.IsPI && nd.Kind == logic.Inv {
			inverterOf[a.Circuit.Nodes[nd.Fanin[0]].Name] = nd.Name
		}
	}
	var gone string
	moved := 0
	for i, loc := range a.Locations {
		for _, tgt := range loc.Targets {
			name := a.Circuit.Nodes[tgt.Gate].Name
			if i == 0 {
				gone = name
				continue
			}
			id := cp.MustLookup(name)
			for pin, f := range cp.Nodes[id].Fanin {
				fn := &cp.Nodes[f]
				if _, inOriginal := a.Circuit.Lookup(fn.Name); inOriginal || fn.IsPI || fn.Kind != logic.Inv {
					continue
				}
				inv, ok := inverterOf[cp.Nodes[fn.Fanin[0]].Name]
				if ok && !slices.Contains(cp.Nodes[id].Fanin, cp.MustLookup(inv)) {
					if err := cp.ReplaceFanin(id, pin, cp.MustLookup(inv)); err != nil {
						tb.Fatal(err)
					}
					moved++
				}
			}
			if rng.Intn(3) != 0 {
				continue
			}
			if k, ok := flip[cp.Nodes[id].Kind]; ok {
				if err := cp.SetKind(id, k); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return renamed(tb, cp, func(s string) string {
		if s == gone {
			return s + "_moved"
		}
		return s
	}), moved
}

// randomAssignment is a uniformly drawn fingerprint of a.
func randomAssignment(tb testing.TB, a *core.Analysis, rng *rand.Rand) core.Assignment {
	tb.Helper()
	v := new(big.Int).Rand(rng, a.Combinations())
	asg, err := a.AssignmentFromInt(v)
	if err != nil {
		tb.Fatal(err)
	}
	return asg
}

// TestExtractMatchesOracle: on every suite circuit and extra, extraction
// from the staged .bench and Verilog text of a copy, and from the built
// circuit, returns the oracle's assignment and tampered list, and Extract
// fails exactly when that list is non-empty. The copies are issued copies,
// copies with every helper inverter renamed, copies with tampered slots,
// and coalition forgeries under every merge strategy.
func TestExtractMatchesOracle(t *testing.T) {
	specs := append(bench.Suite(), bench.Extras()...)
	helpers, moved, tamperedSlots := 0, 0, 0
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Locations) == 0 {
				t.Skip("no fingerprint locations")
			}
			rng := rand.New(rand.NewSource(int64(len(spec.Name))))
			copies := map[string]*circuit.Circuit{}
			var issued []*circuit.Circuit
			for k, asg := range []core.Assignment{core.FullAssignment(a), randomAssignment(t, a, rng), randomAssignment(t, a, rng)} {
				cp, err := core.Embed(a, asg)
				if err != nil {
					t.Fatal(err)
				}
				issued = append(issued, cp)
				copies[fmt.Sprintf("issued%d", k)] = cp
			}
			copies["renamed helpers"] = renamed(t, issued[1], func(s string) string {
				if _, inOriginal := a.Circuit.Lookup(s); inOriginal {
					return s
				}
				helpers++
				return "h_" + s
			})
			var n int
			copies["tampered"], n = tamper(t, a, issued[2], rng)
			moved += n
			for _, st := range redteam.Strategies() {
				res, err := redteam.Coalition(issued, st)
				if err != nil {
					t.Fatal(err)
				}
				copies["coalition "+st.String()] = res.Forged
			}
			for label, cp := range copies {
				wantAsg, wantTampered := oracleExtractTolerant(a, cp)
				if label == "tampered" && len(wantTampered) == 0 {
					t.Fatal("the tampered copy has no tampered slot")
				}
				tamperedSlots += len(wantTampered)
				check := func(from string, nl circuit.Netlist) {
					t.Helper()
					asg, tampered, err := core.ExtractTolerant(a, nl)
					if err != nil {
						t.Fatalf("%s from %s: %v", label, from, err)
					}
					if !slices.EqualFunc(asg, wantAsg, slices.Equal) || !slices.Equal(tampered, wantTampered) {
						t.Fatalf("%s from %s: assignment %v tampered %v, oracle %v %v", label, from, asg, tampered, wantAsg, wantTampered)
					}
					strict, err := core.Extract(a, nl)
					if (err == nil) != (len(wantTampered) == 0) {
						t.Fatalf("%s from %s: Extract error %v with %d tampered slots", label, from, err, len(wantTampered))
					}
					if err == nil && !slices.EqualFunc(strict, wantAsg, slices.Equal) {
						t.Fatalf("%s from %s: Extract %v, oracle %v", label, from, strict, wantAsg)
					}
				}
				check("circuit", cp)
				var src bytes.Buffer
				if err := benchfmt.Write(&src, cp); err != nil {
					t.Fatal(err)
				}
				s, err := benchfmt.Stage(bytes.NewReader(src.Bytes()))
				if err != nil {
					t.Fatalf("%s: staging .bench: %v", label, err)
				}
				check(".bench", s)
				src.Reset()
				if err := verilog.Write(&src, cp); err != nil {
					t.Fatal(err)
				}
				if s, err = verilog.Stage(bytes.NewReader(src.Bytes())); err != nil {
					t.Fatalf("%s: staging Verilog: %v", label, err)
				}
				check("Verilog", s)
			}
		})
	}
	t.Logf("%d helper names renamed, %d helper pins moved onto original inverters, %d tampered slots compared", helpers, moved, tamperedSlots)
	if helpers == 0 || moved == 0 {
		t.Error("no copy had a helper inverter to rename or move")
	}
}
