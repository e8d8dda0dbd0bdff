package odcfp_test

import (
	"bytes"
	"math/big"
	"testing"

	"repro"
	"repro/internal/bench"
)

func TestFacadeEndToEnd(t *testing.T) {
	lib := odcfp.DefaultLibrary()
	c, err := odcfp.Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	a, err := odcfp.Analyze(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLocations() == 0 {
		t.Fatal("no locations on c432")
	}
	v := big.NewInt(3)
	v.Mod(v, a.Combinations())
	res, err := odcfp.Fingerprint(c, lib, v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	asg, err := odcfp.Extract(res.Analysis, res.Fingerprinted)
	if err != nil {
		t.Fatal(err)
	}
	back, err := res.Analysis.IntFromAssignment(asg)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cmp(v) != 0 {
		t.Fatalf("fingerprint %s round-tripped as %s", v, back)
	}
}

func TestFacadeVerilogRoundTrip(t *testing.T) {
	c, err := odcfp.Benchmark("c499")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := odcfp.WriteVerilog(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := odcfp.ReadVerilog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := odcfp.Equivalent(c, back); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBLIFPath(t *testing.T) {
	lib := odcfp.DefaultLibrary()
	src := `
.model tiny
.inputs a b c
.outputs f
.names a b t
11 1
.names t c f
1- 1
-1 1
.end
`
	c, err := odcfp.ReadBLIF(bytes.NewBufferString(src), lib)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() == 0 {
		t.Fatal("empty mapping")
	}
	if _, err := odcfp.Measure(c, lib); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeConstrain(t *testing.T) {
	lib := odcfp.DefaultLibrary()
	c, err := odcfp.Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	a, err := odcfp.Analyze(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	opts := odcfp.ConstrainOptions{Library: lib, DelayBudget: 0.05, Seed: 1}
	rea, err := odcfp.ConstrainReactive(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rea.Verify(0.05); err != nil {
		t.Error(err)
	}
	pro, err := odcfp.ConstrainProactive(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := pro.Verify(0.05); err != nil {
		t.Error(err)
	}
}

func TestFacadeCollusion(t *testing.T) {
	lib := odcfp.DefaultLibrary()
	ip := bench.RippleAdder(24)
	a, err := odcfp.Analyze(ip, lib)
	if err != nil {
		t.Fatal(err)
	}
	reg := odcfp.NewRegistry(a)
	n := a.BitCapacity()
	if n < 4 {
		t.Skip("adder too small")
	}
	mk := func(pattern int) *odcfp.Circuit {
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = pattern>>uint(i%8)&1 == 1
		}
		asg, err := a.AssignmentFromBits(bits)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := odcfp.Embed(a, asg)
		if err != nil {
			t.Fatal(err)
		}
		v, err := a.IntFromAssignment(asg)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Adopt("b"+string(rune('0'+pattern%10)), v.String()); err != nil {
			t.Fatal(err)
		}
		return cp
	}
	copies := []*odcfp.Circuit{mk(0xA5), mk(0x3C)}
	res, err := odcfp.Collude(copies)
	if err != nil {
		t.Fatal(err)
	}
	if err := odcfp.Equivalent(a.Circuit, res.Forged); err != nil {
		t.Fatal(err)
	}
	// The two patterns share bits 2 and 5 of every byte, which the
	// coalition cannot see, so both colluders stay implicated.
	scores, err := reg.TraceScores(a, res.Forged)
	if err != nil {
		t.Fatal(err)
	}
	if got := odcfp.Implicated(scores, 1.0); len(got) != 2 {
		t.Errorf("implicated %v, want both colluders b0 and b5", got)
	}
}

func TestBenchmarkNames(t *testing.T) {
	names := odcfp.BenchmarkNames()
	if len(names) != 14 {
		t.Fatalf("%d benchmark names", len(names))
	}
	if _, err := odcfp.Benchmark("not-a-circuit"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
