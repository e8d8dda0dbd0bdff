// Command quickstart is exactly that: fingerprint the paper's own
// motivational circuit (Fig. 1, F = (A·B)·(C+D)) and a 16-bit adder, prove
// the copies are functionally
// identical, and recover the embedded fingerprints.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/big"
	"os"

	"repro"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
)

func main() {
	lib := odcfp.DefaultLibrary()

	// --- Part 1: the paper's Fig. 1 example -----------------------------
	fig1 := buildFig1()
	a, err := odcfp.Analyze(fig1, lib)
	if err != nil {
		log.Fatal(err)
	}
	cap := a.Capacity()
	fmt.Printf("Fig. 1 circuit: %d fingerprint location(s), capacity 2^%.2f\n",
		cap.Locations, cap.Log2Combos)

	// Embed one bit: connect the OR output into the AND that generates X —
	// exactly the change shown on the right of the paper's Fig. 1.
	res, err := odcfp.FingerprintBits(fig1, lib, []bool{true})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := res.Verify(); err != nil {
		log.Fatal(err) // SAT-proved: the fingerprint never changes F
	}
	fmt.Println("embedded 1 bit; SAT proves the fingerprinted copy ≡ original")
	if err := odcfp.WriteVerilog(os.Stdout, res.Fingerprinted); err != nil {
		log.Fatal(err)
	}

	// --- Part 2: a real datapath block ----------------------------------
	adder := bench.RippleAdder(16)
	a2, err := odcfp.Analyze(adder, lib)
	if err != nil {
		log.Fatal(err)
	}
	cap2 := a2.Capacity()
	fmt.Printf("\n16-bit adder: %d locations, %d slots, capacity 2^%.1f (%s fingerprints)\n",
		cap2.Locations, cap2.Targets, cap2.Log2Combos, a2.Combinations())

	// Give buyer #42 their own copy.
	buyerID := big.NewInt(42)
	res2, err := odcfp.Fingerprint(adder, lib, buyerID)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := res2.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("buyer 42's copy: area %+0.2f%%, delay %+0.2f%%, power %+0.2f%%\n",
		100*res2.Overhead.Area, 100*res2.Overhead.Delay, 100*res2.Overhead.Power)

	// Later, a suspicious netlist surfaces…
	suspect := res2.Fingerprinted.Clone() // the pirate copied it verbatim
	asg, err := odcfp.Extract(res2.Analysis, suspect)
	if err != nil {
		log.Fatal(err)
	}
	got, err := res2.Analysis.IntFromAssignment(asg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted fingerprint from the suspect copy: %s (buyer 42 identified)\n", got)
}

// buildFig1 constructs F = (A·B)·(C+D), the paper's Fig. 1 left circuit.
func buildFig1() *odcfp.Circuit {
	c := circuit.New("fig1")
	a, _ := c.AddPI("A")
	b, _ := c.AddPI("B")
	cc, _ := c.AddPI("C")
	d, _ := c.AddPI("D")
	x, _ := c.AddGate("X", logic.And, a, b)
	y, _ := c.AddGate("Y", logic.Or, cc, d)
	f, _ := c.AddGate("F", logic.And, x, y)
	if err := c.AddPO("F", f); err != nil {
		panic(err)
	}
	return c
}
