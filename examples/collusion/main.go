// Command collusion demonstrates the collusion attack and tracing (paper
// §III-E): three buyers pool their differently fingerprinted instances,
// diff the layouts, and rewire every
// site where the copies disagree. The vendor's score-based tracer still
// implicates exactly the colluders, because the coalition cannot detect —
// and therefore cannot erase — the locations where all of its members
// carry the same bit.
//
// Run with: go run ./examples/collusion
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/bench"
)

func main() {
	lib := odcfp.DefaultLibrary()
	ip := bench.PLA("crypto_ctrl", bench.PLAOptions{
		Inputs: 24, Outputs: 16, Products: 120,
		MinLits: 4, MaxLits: 8, ProductsPerOut: 8, Seed: 7,
	})
	a, err := odcfp.Analyze(ip, lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IP %q: %d gates, %d fingerprint locations\n",
		ip.Name, ip.NumGates(), a.NumLocations())

	reg := odcfp.NewRegistry(a)
	rng := rand.New(rand.NewSource(99))
	buyers := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	copies := make([]*odcfp.Circuit, len(buyers))
	for i, buyer := range buyers {
		bits := make([]bool, a.BitCapacity())
		for j := range bits {
			bits[j] = rng.Intn(2) == 1
		}
		asg, err := a.AssignmentFromBits(bits)
		if err != nil {
			log.Fatal(err)
		}
		cp, err := odcfp.Embed(a, asg)
		if err != nil {
			log.Fatal(err)
		}
		v, err := a.IntFromAssignment(asg)
		if err != nil {
			log.Fatal(err)
		}
		if err := reg.Adopt(buyer, v.String()); err != nil {
			log.Fatal(err)
		}
		copies[i] = cp
	}

	// alpha, bravo and charlie collude.
	coalition := copies[:3]
	res, err := odcfp.Collude(coalition)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncoalition of 3 diffs its copies: %d fingerprint sites detected and reset\n",
		len(res.DetectedGates))

	// Their forged chip still has to work.
	if err := odcfp.Equivalent(a.Circuit, res.Forged); err != nil {
		log.Fatalf("forged instance broke the function: %v", err)
	}
	fmt.Println("forged instance verified functionally correct (the attack preserves the IP)")

	// The vendor traces it.
	scores, err := reg.TraceScores(a, res.Forged)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmarking-assumption scores (fraction of surviving modifications matched):")
	for _, s := range scores {
		fmt.Printf("  %-8s %3d/%3d = %.3f   (all-slot agreement %.3f)\n",
			s.Name, s.AgreePresent, s.TotalPresent, s.Fraction(), s.FractionAll())
	}
	accused := odcfp.Implicated(scores, 1.0)
	fmt.Printf("\naccused (score = 1.0): %v\n", accused)
	fmt.Println("the coalition cannot remove the modifications all of its members share,")
	fmt.Println("so every colluder is traced — the paper's §III-E traceability claim")
}
