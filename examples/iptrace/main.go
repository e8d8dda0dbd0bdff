// Command iptrace plays out an IP-market scenario: a vendor sells the same
// ALU core to several SoC integrators, giving each a distinct ODC
// fingerprint. When a netlist leaks,
// the vendor extracts the surviving fingerprint and identifies the leaker.
//
// Run with: go run ./examples/iptrace
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

	// The vendor's IP: an 8-bit two-bank ALU core.
	ip := bench.ALU("alu_core", bench.ALUOptions{Width: 8, Banks: 2, WithZero: true})
	a, err := odcfp.Analyze(ip, lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IP %q: %d gates, %d fingerprint locations (capacity 2^%.1f)\n",
		ip.Name, ip.NumGates(), a.NumLocations(), a.Capacity().Log2Combos)

	// Issue fingerprinted copies to five buyers. Each buyer gets a random
	// binary fingerprint; the vendor records them in its registry.
	reg := odcfp.NewRegistry(a)
	rng := rand.New(rand.NewSource(2026))
	buyers := []string{"acme-soc", "borealis", "cygnus", "deltaware", "espresso"}
	copies := map[string]*odcfp.Circuit{}
	for _, buyer := range buyers {
		bits := make([]bool, a.BitCapacity())
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		asg, err := a.AssignmentFromBits(bits)
		if err != nil {
			log.Fatal(err)
		}
		cp, err := odcfp.Embed(a, asg)
		if err != nil {
			log.Fatal(err)
		}
		// Every shipped copy is proved functionally identical to the IP.
		if err := odcfp.Equivalent(a.Circuit, cp); err != nil {
			log.Fatalf("shipped copy not equivalent: %v", err)
		}
		v, err := a.IntFromAssignment(asg)
		if err != nil {
			log.Fatal(err)
		}
		if err := reg.Adopt(buyer, v.String()); err != nil {
			log.Fatal(err)
		}
		copies[buyer] = cp
		m, err := odcfp.Measure(cp, lib)
		if err != nil {
			log.Fatal(err)
		}
		base, _ := odcfp.Measure(a.Circuit, lib)
		fmt.Printf("  shipped to %-10s (%3d bits set, area %+5.2f%%)\n",
			buyer, asg.CountActive(), 100*(m.Area-base.Area)/base.Area)
	}

	// A netlist appears on a grey-market forum. It is a verbatim copy of
	// cygnus's instance (heredity: copying preserves the fingerprint).
	leak := copies["cygnus"].Clone()
	fmt.Println("\na leaked netlist surfaces; tracing…")
	// Adopt rejects two buyers on one fingerprint, so an exact match names
	// exactly one buyer.
	exact, err := reg.TraceExact(a, leak)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("buyers exactly matching the leak's fingerprint: [%s]\n", exact)
	if exact != "cygnus" {
		log.Fatalf("leak attributed to %s, want cygnus", exact)
	}
	fmt.Println("leak attributed to cygnus ✔")
}
