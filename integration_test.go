package odcfp_test

import (
	"bytes"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

// readFixture loads one of the committed testdata netlists through the
// format-appropriate facade reader.
func readFixture(t *testing.T, name string) *odcfp.Circuit {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var c *odcfp.Circuit
	switch filepath.Ext(name) {
	case ".blif":
		c, err = odcfp.ReadBLIF(f, odcfp.DefaultLibrary())
	case ".v":
		c, err = odcfp.ReadVerilog(f)
	case ".bench":
		c, err = odcfp.ReadBench(f)
	default:
		t.Fatalf("unknown fixture format %s", name)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c
}

// TestFixtureSemantics checks the parsed fixtures compute their documented
// functions.
func TestFixtureSemantics(t *testing.T) {
	maj := readFixture(t, "majority.blif")
	for m := 0; m < 8; m++ {
		a, b, c := m&1 == 1, m&2 == 2, m&4 == 4
		out, err := sim.EvalOne(maj, []bool{a, b, c})
		if err != nil {
			t.Fatal(err)
		}
		wantMaj := (a && b) || (a && c) || (b && c)
		wantPar := a != b != c
		if out[0] != wantMaj || out[1] != wantPar {
			t.Errorf("majpar(%v,%v,%v) = %v,%v want %v,%v", a, b, c, out[0], out[1], wantMaj, wantPar)
		}
	}
	mux := readFixture(t, "mux4.v")
	for m := 0; m < 64; m++ {
		in := make([]bool, 6)
		for i := range in {
			in[i] = m>>uint(i)&1 == 1
		}
		d := in[:4]
		sel := 0
		if in[4] {
			sel |= 1
		}
		if in[5] {
			sel |= 2
		}
		out, err := sim.EvalOne(mux, in)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != d[sel] {
			t.Errorf("mux4 pattern %d: got %v want %v", m, out[0], d[sel])
		}
	}
}

// TestFileLevelFingerprintFlow is the full user journey over real files:
// parse → fingerprint → serialise → re-parse → extract → verify, across
// all three formats.
func TestFileLevelFingerprintFlow(t *testing.T) {
	lib := odcfp.DefaultLibrary()
	for _, fixture := range []string{"majority.blif", "c17.bench", "mux4.v"} {
		fixture := fixture
		t.Run(fixture, func(t *testing.T) {
			c := readFixture(t, fixture)
			a, err := odcfp.Analyze(c, lib)
			if err != nil {
				t.Fatal(err)
			}
			if a.NumLocations() == 0 {
				t.Skipf("%s has no fingerprint locations", fixture)
			}
			v := big.NewInt(5)
			v.Mod(v, a.Combinations())
			res, err := odcfp.Fingerprint(c, lib, v)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := res.Verify(); err != nil {
				t.Fatal(err)
			}
			// Serialise the fingerprinted netlist as Verilog and .bench,
			// re-read, and extract from both.
			for _, format := range []string{"verilog", "bench"} {
				var buf bytes.Buffer
				var back *odcfp.Circuit
				switch format {
				case "verilog":
					if err := odcfp.WriteVerilog(&buf, res.Fingerprinted); err != nil {
						t.Fatal(err)
					}
					back, err = odcfp.ReadVerilog(&buf)
				case "bench":
					if err := odcfp.WriteBench(&buf, res.Fingerprinted); err != nil {
						t.Fatal(err)
					}
					back, err = odcfp.ReadBench(&buf)
				}
				if err != nil {
					t.Fatalf("%s round trip: %v", format, err)
				}
				asg, err := odcfp.Extract(res.Analysis, back)
				if err != nil {
					t.Fatalf("%s extract: %v", format, err)
				}
				got, err := res.Analysis.IntFromAssignment(asg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cmp(v) != 0 {
					t.Errorf("%s: fingerprint %s survived as %s", format, v, got)
				}
			}
		})
	}
}

// TestMultiplierStaysAMultiplier is a known-answer end-to-end check: after
// full fingerprinting, a 6×6 array multiplier must still multiply — not
// merely be "equivalent to itself" but correct against integer arithmetic.
func TestMultiplierStaysAMultiplier(t *testing.T) {
	lib := odcfp.DefaultLibrary()
	c := bench.Multiplier(6)
	res, err := odcfp.Fingerprint(c, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis.NumLocations() == 0 {
		t.Fatal("multiplier has no locations")
	}
	fp := res.Fingerprinted
	for a := 0; a < 64; a += 7 {
		for b := 0; b < 64; b += 5 {
			in := make([]bool, 12)
			for i := 0; i < 6; i++ {
				in[i] = a>>uint(i)&1 == 1
				in[6+i] = b>>uint(i)&1 == 1
			}
			out, err := sim.EvalOne(fp, in)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for i := range out {
				if out[i] {
					got |= 1 << uint(i)
				}
			}
			if got != a*b {
				t.Fatalf("fingerprinted multiplier: %d×%d = %d, got %d", a, b, a*b, got)
			}
		}
	}
}

// TestResynthesisAttack documents the paper-scope boundary (EXPERIMENTS.md
// E13): an attacker who resynthesises a pirated copy gets a functionally
// identical netlist on which structural fingerprint extraction fails. The
// function (and hence the IP value) is preserved — proved by SAT — but the
// diff-based extractor no longer finds the named gates. This is exactly why
// the paper pairs fingerprints with a watermark and targets post-layout IP
// forms (gate-level layout), where resynthesis means a full re-implementation.
func TestResynthesisAttack(t *testing.T) {
	lib := odcfp.DefaultLibrary()
	c, err := odcfp.Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	res, err := odcfp.Fingerprint(c, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	pirated, err := odcfp.Resynthesize(res.Fingerprinted)
	if err != nil {
		t.Fatal(err)
	}
	// The attack preserves the function…
	if err := odcfp.Equivalent(res.Analysis.Circuit, pirated); err != nil {
		t.Fatalf("resynthesis broke the function: %v", err)
	}
	// …but defeats structural extraction.
	if _, err := odcfp.Extract(res.Analysis, pirated); err == nil {
		t.Error("extraction unexpectedly survived resynthesis; E13 in EXPERIMENTS.md is stale")
	}
}

// TestResynthesizeOptimizes: the AIG round trip is also a legitimate
// optimisation pass — on an unbalanced same-kind chain, balance exploits
// associativity and cuts the depth to O(log n) while the function is
// preserved. (Alternating AND/OR chains have no associativity to exploit,
// and XOR-heavy circuits may even deepen: one XOR cell is two AIG levels.)
func TestResynthesizeOptimizes(t *testing.T) {
	c := odcfpCircuitChain(t, 24)
	out, err := odcfp.Resynthesize(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := odcfp.Equivalent(c, out); err != nil {
		t.Fatal(err)
	}
	if got, orig := out.Stats().Depth, c.Stats().Depth; got >= orig/2 {
		t.Errorf("balance left the chain deep: %d → %d", orig, got)
	}
}

// odcfpCircuitChain builds a deliberately unbalanced AND chain over n
// inputs (depth n−1 before balancing, ~log₂ n after).
func odcfpCircuitChain(t *testing.T, n int) *odcfp.Circuit {
	t.Helper()
	c := circuit.New("chain")
	acc, err := c.AddPI("p0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		pi, err := c.AddPI(fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatal(err)
		}
		acc, err = c.AddGate(fmt.Sprintf("g%d", i), logic.And, acc, pi)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddPO("y", acc); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFixtureSDCFlow runs the SDC variant over a file fixture.
func TestFixtureSDCFlow(t *testing.T) {
	lib := odcfp.DefaultLibrary()
	c := readFixture(t, "majority.blif")
	a, err := odcfp.AnalyzeSDC(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLocations() == 0 {
		t.Skip("no SDCs in fixture")
	}
	bits := make([]bool, a.NumLocations())
	for i := range bits {
		bits[i] = true
	}
	fp, err := odcfp.EmbedSDC(a, bits)
	if err != nil {
		t.Fatal(err)
	}
	if err := odcfp.Equivalent(c, fp); err != nil {
		t.Fatal(err)
	}
	got, err := odcfp.ExtractSDC(a, fp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Errorf("SDC bit %d mismatch", i)
		}
	}
}
